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

(* --- payload writers: straight into the stream's buffer --- *)

let put_string w s =
  Writer.varint w (String.length s);
  Writer.string w s

let put_hello w (h : header) =
  Writer.varint w version;
  put_string w h.program_hash;
  put_string w h.mode;
  put_string w (Event.name h.pic0);
  put_string w (Event.name h.pic1)

let put_opt w put = function
  | None -> Writer.varint w 0
  | Some v ->
      Writer.varint w 1;
      put v

let put_proc w (p : proc_frame) =
  put_string w p.name;
  Writer.varint w p.npaths;
  put_opt w (Writer.varint w) p.feasible;
  put_opt w
    (fun (sampled, total) ->
      Writer.varint w sampled;
      Writer.varint w total)
    p.coverage;
  Writer.varint w (List.length p.paths);
  List.iter
    (fun (sum, (m : Profile.path_metrics)) ->
      Writer.varint w sum;
      Writer.varint w m.Profile.freq;
      Writer.varint w m.Profile.m0;
      Writer.varint w m.Profile.m1)
    p.paths

let put_end w (s : summary) =
  Writer.varint w s.nprocs;
  Writer.varint w s.freq;
  Writer.varint w s.m0;
  Writer.varint w s.m1

(* A frame's header is reserved, its payload written after it, and then
   its length and the payload's CRC are patched in. *)
let put_frame w f =
  Writer.char w (match f with Hello _ -> 'H' | Proc _ -> 'P' | End _ -> 'E');
  let at = Writer.length w in
  Writer.u32 w 0;
  Writer.u32 w 0;
  (match f with
  | Hello h -> put_hello w h
  | Proc p -> put_proc w p
  | End s -> put_end w s);
  let len = Writer.length w - at - 8 in
  Writer.set_u32 w at len;
  Writer.set_u32 w (at + 4) (Crc32.digest ~pos:(at + 8) ~len (Writer.view w))

let encode_frame f =
  let w = Writer.create 256 in
  put_frame w f;
  Writer.contents w

(* --- payload readers --- *)

exception Malformed of string

let mal fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Cursor over one payload, [data.[pos .. limit)], in place. *)
type cursor = { data : string; mutable pos : int; limit : int }

(* The inverse of [Writer.varint]'s zigzag. *)
let unzigzag n = (n lsr 1) lxor -(n land 1)

let get_varint c =
  let shift = ref 0 and acc = ref 0 and continue = ref true in
  while !continue do
    if c.pos >= c.limit then mal "truncated varint";
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
  if n < 0 || n > c.limit - c.pos then mal "truncated string";
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_event c =
  let s = get_string c in
  match Event.of_name s with
  | Some e -> e
  | None -> mal "unknown event %S" s

let parse_hello c =
  let v = get_varint c in
  if v <> version then mal "unsupported wire version %d" v;
  let program_hash = get_string c in
  let mode = get_string c in
  let pic0 = get_event c in
  let pic1 = get_event c in
  { program_hash; mode; pic0; pic1 }

let get_opt c get =
  match get_varint c with
  | 0 -> None
  | 1 -> Some (get ())
  | k -> mal "bad option tag %d" k

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

let parse_end c =
  let nprocs = get_varint c in
  let freq = get_varint c in
  let m0 = get_varint c in
  let m1 = get_varint c in
  { nprocs; freq; m0; m1 }

(* --- shard <-> frame sequence --- *)

(* The frames of a canonical shard in one walk: procedures, feasible
   counts and coverage windows are all sorted by name, so the next name is
   the least of the three heads.  Each procedure of that name carries the
   first annotation of it (as [List.assoc_opt] would find); a name only
   annotations carry gets a carrier frame, and the carriers follow the
   procedures, in name order. *)
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
  let first name = function
    | (n, v) :: _ when n = name -> Some v
    | _ -> None
  in
  let rec drop name = function
    | (n, _) :: rest when n = name -> drop name rest
    | l -> l
  in
  let least a b =
    match (a, b) with
    | Some x, Some y -> Some (if String.compare x y <= 0 then x else y)
    | None, n | n, None -> n
  in
  let head = function (n, _) :: _ -> Some n | [] -> None in
  let rec walk procs carriers ps fe co =
    let next =
      least
        (match ps with (n, _, _) :: _ -> Some n | [] -> None)
        (least (head fe) (head co))
    in
    match next with
    | None -> (List.rev procs, List.rev carriers)
    | Some name ->
        let feasible = first name fe and coverage = first name co in
        let rec claim acc = function
          | (n, npaths, paths) :: rest when n = name ->
              claim
                (Proc { name; npaths; feasible; coverage; paths } :: acc)
                rest
          | rest -> (acc, rest)
        in
        let procs', ps = claim procs ps in
        let carriers =
          if procs' != procs then carriers
          else
            Proc { name; npaths = 0; feasible; coverage; paths = [] }
            :: carriers
        in
        walk procs' carriers ps (drop name fe) (drop name co)
  in
  let procs, carriers =
    walk [] [] s.Profile_io.procs s.Profile_io.feasible s.Profile_io.coverage
  in
  let freq, m0, m1 = Profile_io.totals s in
  (header :: procs)
  @ carriers
  @ [
      End
        {
          nprocs = List.length procs + List.length carriers;
          freq;
          m0;
          m1;
        };
    ]

let encode_saved s =
  let w = Writer.create 4096 in
  List.iter (put_frame w) (frames_of_saved s);
  Writer.contents w

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
          (* The payload is digested and parsed where it lies; [feed]
             only writes to the buffer again after [data] is dropped. *)
          let data = Bytes.unsafe_to_string r.buf in
          let start = r.pos + 9 in
          if Crc32.digest ~pos:start ~len data <> crc then begin
            r.corrupt <- Some "frame checksum mismatch";
            `Corrupt (Option.get r.corrupt)
          end
          else begin
            r.pos <- start + len;
            let c = { data; pos = start; limit = start + len } in
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
