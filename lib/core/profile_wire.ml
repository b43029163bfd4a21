(* The binary shard wire format `pp serve` speaks: a profile streams as a
   sequence of self-delimiting CRC-framed binary frames instead of one
   line-text file, so an aggregator can merge each procedure as it
   arrives and a torn connection leaves a cleanly decodable prefix.

   Frame layout (integers little-endian):

     +------+-------------+--------------+-----------------+
     | kind | len: u32 LE | crc: u32 LE  | payload (len B) |
     +------+-------------+--------------+-----------------+

   kind is 'H' (hello: stream header), 'P' (one procedure's records) or
   'E' (end: whole-shard totals, the stream's integrity summary).  crc is
   the Crc32 digest of the payload, the same polynomial the v2 text
   shards use per line.  Payload integers are zigzag LEB128 varints;
   strings are a varint length plus bytes. *)

module Event = Pp_machine.Event

let version = 1
let max_payload = 1 lsl 24

type header = {
  program_hash : string;
  mode : string;
  pic0 : Event.t;
  pic1 : Event.t;
}

type proc_frame = {
  name : string;
  npaths : int;
  feasible : int option;
  coverage : (int * int) option;
  paths : (int * Profile.path_metrics) list;
}

type summary = { nprocs : int; freq : int; m0 : int; m1 : int }

type frame = Hello of header | Proc of proc_frame | End of summary

(* --- varints --- *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (-(n land 1))

let put_varint buf n =
  let n = ref (zigzag n) in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

exception Malformed of string

let mal fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Cursor-based payload reader. *)
type cursor = { data : string; mutable pos : int }

let get_varint c =
  let shift = ref 0 and acc = ref 0 and continue = ref true in
  while !continue do
    if c.pos >= String.length c.data then mal "truncated varint";
    if !shift > 62 then mal "varint overflow";
    let b = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := b land 0x80 <> 0
  done;
  unzigzag !acc

let get_string c =
  let n = get_varint c in
  if n < 0 || c.pos + n > String.length c.data then mal "truncated string";
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_event c =
  let s = get_string c in
  match Event.of_name s with
  | Some e -> e
  | None -> mal "unknown event %S" s

(* --- payload codecs --- *)

let hello_payload (h : header) =
  let buf = Buffer.create 64 in
  put_varint buf version;
  put_string buf h.program_hash;
  put_string buf h.mode;
  put_string buf (Event.name h.pic0);
  put_string buf (Event.name h.pic1);
  Buffer.contents buf

let parse_hello c =
  let v = get_varint c in
  if v <> version then mal "unsupported wire version %d" v;
  let program_hash = get_string c in
  let mode = get_string c in
  let pic0 = get_event c in
  let pic1 = get_event c in
  { program_hash; mode; pic0; pic1 }

let put_opt buf put = function
  | None -> put_varint buf 0
  | Some v ->
      put_varint buf 1;
      put v

let get_opt c get =
  match get_varint c with
  | 0 -> None
  | 1 -> Some (get ())
  | k -> mal "bad option tag %d" k

let proc_payload (p : proc_frame) =
  let buf = Buffer.create 256 in
  put_string buf p.name;
  put_varint buf p.npaths;
  put_opt buf (put_varint buf) p.feasible;
  put_opt buf
    (fun (sampled, total) ->
      put_varint buf sampled;
      put_varint buf total)
    p.coverage;
  put_varint buf (List.length p.paths);
  List.iter
    (fun (sum, (m : Profile.path_metrics)) ->
      put_varint buf sum;
      put_varint buf m.Profile.freq;
      put_varint buf m.Profile.m0;
      put_varint buf m.Profile.m1)
    p.paths;
  Buffer.contents buf

let parse_proc c =
  let name = get_string c in
  let npaths = get_varint c in
  let feasible = get_opt c (fun () -> get_varint c) in
  let coverage =
    get_opt c (fun () ->
        let sampled = get_varint c in
        let total = get_varint c in
        (sampled, total))
  in
  let n = get_varint c in
  if n < 0 then mal "negative path count";
  let paths =
    List.init n (fun _ ->
        let sum = get_varint c in
        let freq = get_varint c in
        let m0 = get_varint c in
        let m1 = get_varint c in
        (sum, { Profile.freq; m0; m1 }))
  in
  { name; npaths; feasible; coverage; paths }

let end_payload (s : summary) =
  let buf = Buffer.create 32 in
  put_varint buf s.nprocs;
  put_varint buf s.freq;
  put_varint buf s.m0;
  put_varint buf s.m1;
  Buffer.contents buf

let parse_end c =
  let nprocs = get_varint c in
  let freq = get_varint c in
  let m0 = get_varint c in
  let m1 = get_varint c in
  { nprocs; freq; m0; m1 }

(* --- framing --- *)

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let frame_string kind payload =
  let buf = Buffer.create (String.length payload + 9) in
  Buffer.add_char buf kind;
  put_u32 buf (String.length payload);
  put_u32 buf (Crc32.digest payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let encode_frame = function
  | Hello h -> frame_string 'H' (hello_payload h)
  | Proc p -> frame_string 'P' (proc_payload p)
  | End s -> frame_string 'E' (end_payload s)

(* --- shard <-> frame sequence --- *)

let frames_of_saved (s : Profile_io.saved) =
  let s = Profile_io.canonical s in
  let header =
    Hello
      {
        program_hash = s.Profile_io.program_hash;
        mode = s.Profile_io.mode;
        pic0 = s.Profile_io.pic0;
        pic1 = s.Profile_io.pic1;
      }
  in
  let procs =
    List.map
      (fun (name, npaths, paths) ->
        Proc
          {
            name;
            npaths;
            feasible = List.assoc_opt name s.Profile_io.feasible;
            coverage = List.assoc_opt name s.Profile_io.coverage;
            paths;
          })
      s.Profile_io.procs
  in
  (* Feasible/coverage annotations for procedures without a proc record
     (e.g. a fully gated-off procedure) still need a carrier frame. *)
  let proc_names = List.map (fun (n, _, _) -> n) s.Profile_io.procs in
  let orphan name = not (List.mem name proc_names) in
  let orphans =
    List.sort_uniq compare
      (List.filter orphan (List.map fst s.Profile_io.feasible)
      @ List.filter orphan (List.map fst s.Profile_io.coverage))
  in
  let orphan_frames =
    List.map
      (fun name ->
        Proc
          {
            name;
            npaths = 0;
            feasible = List.assoc_opt name s.Profile_io.feasible;
            coverage = List.assoc_opt name s.Profile_io.coverage;
            paths = [];
          })
      orphans
  in
  let freq, m0, m1 = Profile_io.totals s in
  (header :: procs)
  @ orphan_frames
  @ [
      End
        {
          nprocs = List.length procs + List.length orphan_frames;
          freq;
          m0;
          m1;
        };
    ]

let encode_saved s =
  String.concat "" (List.map encode_frame (frames_of_saved s))

(* Reassemble a decoded frame sequence.  Proc frames with [npaths = 0]
   and no paths are annotation carriers: they contribute feasible /
   coverage entries but no procs row. *)
let saved_of_frames (h : header) (procs : proc_frame list) =
  Profile_io.canonical
    {
      Profile_io.program_hash = h.program_hash;
      mode = h.mode;
      pic0 = h.pic0;
      pic1 = h.pic1;
      procs =
        List.filter_map
          (fun (p : proc_frame) ->
            if p.npaths = 0 && p.paths = [] then None
            else Some (p.name, p.npaths, p.paths))
          procs;
      feasible =
        List.filter_map
          (fun (p : proc_frame) ->
            Option.map (fun k -> (p.name, k)) p.feasible)
          procs;
      coverage =
        List.filter_map
          (fun (p : proc_frame) ->
            Option.map (fun w -> (p.name, w)) p.coverage)
          procs;
    }

(* --- incremental reader --- *)

type reader = {
  mutable buf : Bytes.t;
  mutable len : int;  (* bytes buffered *)
  mutable pos : int;  (* consumed prefix *)
  mutable corrupt : string option;  (* sticky *)
}

let reader () =
  { buf = Bytes.create 4096; len = 0; pos = 0; corrupt = None }

let feed r s =
  let n = String.length s in
  if r.len + n > Bytes.length r.buf then begin
    (* Compact the consumed prefix, then grow if still needed. *)
    if r.pos > 0 then begin
      Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
      r.len <- r.len - r.pos;
      r.pos <- 0
    end;
    if r.len + n > Bytes.length r.buf then begin
      let cap = ref (max 4096 (2 * Bytes.length r.buf)) in
      while r.len + n > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit r.buf 0 bigger 0 r.len;
      r.buf <- bigger
    end
  end;
  Bytes.blit_string s 0 r.buf r.len n;
  r.len <- r.len + n

let u32_at b i =
  Char.code (Bytes.get b i)
  lor (Char.code (Bytes.get b (i + 1)) lsl 8)
  lor (Char.code (Bytes.get b (i + 2)) lsl 16)
  lor (Char.code (Bytes.get b (i + 3)) lsl 24)

let pending r = r.len - r.pos

let next r =
  match r.corrupt with
  | Some msg -> `Corrupt msg
  | None ->
      if pending r < 9 then `Need_more
      else begin
        let kind = Bytes.get r.buf r.pos in
        let len = u32_at r.buf (r.pos + 1) in
        let crc = u32_at r.buf (r.pos + 5) in
        if kind <> 'H' && kind <> 'P' && kind <> 'E' then begin
          r.corrupt <- Some (Printf.sprintf "bad frame kind 0x%02x"
                               (Char.code kind));
          `Corrupt (Option.get r.corrupt)
        end
        else if len < 0 || len > max_payload then begin
          r.corrupt <- Some (Printf.sprintf "frame length %d out of range" len);
          `Corrupt (Option.get r.corrupt)
        end
        else if pending r < 9 + len then `Need_more
        else begin
          let payload = Bytes.sub_string r.buf (r.pos + 9) len in
          if Crc32.digest payload <> crc then begin
            r.corrupt <- Some "frame checksum mismatch";
            `Corrupt (Option.get r.corrupt)
          end
          else begin
            r.pos <- r.pos + 9 + len;
            let c = { data = payload; pos = 0 } in
            match
              match kind with
              | 'H' -> Hello (parse_hello c)
              | 'P' -> Proc (parse_proc c)
              | _ -> End (parse_end c)
            with
            | frame -> `Frame frame
            | exception Malformed msg ->
                r.corrupt <- Some msg;
                `Corrupt msg
          end
        end
      end
