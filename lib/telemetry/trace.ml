type event =
  | Begin of { name : string; ts : float }
  | End of { name : string; ts : float }
  | Counter of { name : string; ts : float; values : (string * int) list }
  | Instant of { name : string; ts : float }

type t = {
  on : bool;
  clock : unit -> float;
  t0 : float;
  ring : event array;  (* length 0 iff disabled *)
  mutable next : int;  (* insertion cursor *)
  mutable count : int;  (* live events, <= capacity *)
  mutable dropped : int;
}

let dummy = Instant { name = ""; ts = 0.0 }

let create ?(clock = Unix.gettimeofday) ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  {
    on = true;
    clock;
    t0 = clock ();
    ring = Array.make capacity dummy;
    next = 0;
    count = 0;
    dropped = 0;
  }

let null =
  {
    on = false;
    clock = (fun () -> 0.0);
    t0 = 0.0;
    ring = [||];
    next = 0;
    count = 0;
    dropped = 0;
  }

let enabled t = t.on
let dropped t = t.dropped

let now t = t.clock () -. t.t0

let push t e =
  let cap = Array.length t.ring in
  t.ring.(t.next) <- e;
  t.next <- (t.next + 1) mod cap;
  if t.count < cap then t.count <- t.count + 1 else t.dropped <- t.dropped + 1

let with_span t name f =
  if not t.on then f ()
  else begin
    push t (Begin { name; ts = now t });
    Fun.protect ~finally:(fun () -> push t (End { name; ts = now t })) f
  end

let counter t name values =
  if t.on then push t (Counter { name; ts = now t; values })

let instant t name = if t.on then push t (Instant { name; ts = now t })

let events t =
  let cap = Array.length t.ring in
  if cap = 0 || t.count = 0 then []
  else
    let first = (t.next - t.count + (2 * cap)) mod cap in
    List.init t.count (fun i -> t.ring.((first + i) mod cap))

(* Ring truncation can orphan events: an [End] whose [Begin] was dropped,
   or a [Begin] still open at export time.  Exporters see a repaired
   sequence — orphan ends removed, open spans closed at the last
   timestamp — so the B/E pairing is always balanced.  Matching by order
   is sound because spans are strictly nested (single-threaded). *)
let balanced_events t =
  let evs = events t in
  let last_ts =
    List.fold_left
      (fun acc e ->
        match e with
        | Begin { ts; _ } | End { ts; _ } | Counter { ts; _ }
        | Instant { ts; _ } ->
            Float.max acc ts)
      0.0 evs
  in
  let rev, open_spans =
    List.fold_left
      (fun (acc, stack) e ->
        match e with
        | Begin { name; _ } -> (e :: acc, name :: stack)
        | End _ -> (
            match stack with
            | _ :: rest -> (e :: acc, rest)
            | [] -> (acc, []) (* orphan: its Begin fell off the ring *))
        | Counter _ | Instant _ -> (e :: acc, stack))
      ([], []) evs
  in
  let closers = List.map (fun name -> End { name; ts = last_ts }) open_spans in
  List.rev_append rev closers

(* {2 Chrome trace_event export} *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let usec ts = ts *. 1e6

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_char buf ',';
        Buffer.add_string buf s)
      fmt
  in
  List.iter
    (fun e ->
      match e with
      | Begin { name; ts } ->
          emit
            "{\"name\":\"%s\",\"cat\":\"pp\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":1}"
            (json_escape name) (usec ts)
      | End { name; ts } ->
          emit
            "{\"name\":\"%s\",\"cat\":\"pp\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":1}"
            (json_escape name) (usec ts)
      | Counter { name; ts; values } ->
          let args =
            String.concat ","
              (List.map
                 (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v)
                 values)
          in
          emit
            "{\"name\":\"%s\",\"cat\":\"pp\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{%s}}"
            (json_escape name) (usec ts) args
      | Instant { name; ts } ->
          emit
            "{\"name\":\"%s\",\"cat\":\"pp\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"s\":\"t\"}"
            (json_escape name) (usec ts))
    (balanced_events t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* {2 Compact text export} *)

let to_text t =
  let buf = Buffer.create 1024 in
  let line depth fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf (String.make (2 * depth) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let depth = ref 0 in
  (* Duration of each span: match ends to begins by nesting order. *)
  let stack = ref [] in
  List.iter
    (fun e ->
      match e with
      | Begin { name; ts } ->
          line !depth "[%9.3fms] %s" (ts *. 1e3) name;
          stack := ts :: !stack;
          incr depth
      | End { name; ts } ->
          decr depth;
          let t0 =
            match !stack with
            | t0 :: rest ->
                stack := rest;
                t0
            | [] -> ts
          in
          line !depth "[%9.3fms] %s done (%.3fms)" (ts *. 1e3) name
            ((ts -. t0) *. 1e3)
      | Counter { name; ts; values } ->
          line !depth "[%9.3fms] counter %s %s" (ts *. 1e3) name
            (String.concat " "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) values))
      | Instant { name; ts } ->
          line !depth "[%9.3fms] instant %s" (ts *. 1e3) name)
    (balanced_events t);
  if t.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d events dropped by the full ring)\n" t.dropped);
  Buffer.contents buf
