(* The always-on aggregation service behind `pp serve`: a Unix-domain
   socket listener that ingests binary profile shards (Profile_wire
   frames) from many concurrent client runs and merges them incrementally
   under a bounded memory budget, LTT-style (Dagenais et al.): the
   profiler keeps running while the daemon folds shards in, instead of
   one batch merge after everything exits.

   Merge laws make streaming safe: Profile_io.merge is commutative and
   associative on canonical shards, so the fault-free streamed result is
   byte-identical to an offline `pp merge` of the same shards, whatever
   the arrival interleaving.  Faults degrade the same way the text shards
   do — a torn or damaged stream contributes its valid frame prefix
   (salvaged), an unusable hello is rejected, and memory-pressure
   eviction is an explicit degraded-coverage verdict (exit 3). *)

module Metrics = Pp_telemetry.Metrics
module Trace = Pp_telemetry.Trace
module Profile_io = Pp_core.Profile_io
module Wire = Pp_core.Profile_wire
module Diag = Pp_ir.Diag

(* ------------------------------------------------------------------ *)
(* The bounded-memory incremental aggregator (shared with bench). *)

type agg = {
  max_records : int option;
  spill_dir : string option;
  mutable merged : Profile_io.saved option;
  mutable resident : int;  (* path records in [merged] *)
  mutable spilled : int;  (* spill files written *)
  mutable evicted : int;  (* path records dropped under pressure *)
  mutable peak : int;  (* peak resident records *)
  mutable conflict : Diag.t option;
}

let agg_create ?max_records ?spill_dir () =
  Option.iter
    (fun n -> if n <= 0 then invalid_arg "Serve.agg_create: max_records <= 0")
    max_records;
  {
    max_records;
    spill_dir;
    merged = None;
    resident = 0;
    spilled = 0;
    evicted = 0;
    peak = 0;
    conflict = None;
  }

let resident_records (s : Profile_io.saved) =
  List.fold_left
    (fun acc (_, _, paths) -> acc + List.length paths)
    0 s.Profile_io.procs

let spill_path dir k = Filename.concat dir (Printf.sprintf "spill-%04d.pprof" k)

(* Deterministic eviction: drop the lowest-frequency path records
   (ties broken by procedure then path sum) until the table fits.  What
   remains under-counts — an explicit degraded-coverage outcome. *)
let evict (s : Profile_io.saved) ~keep =
  let entries =
    List.concat_map
      (fun (proc, _, paths) ->
        List.map
          (fun (sum, (m : Pp_core.Profile.path_metrics)) ->
            (m.Pp_core.Profile.freq, proc, sum))
          paths)
      s.Profile_io.procs
  in
  let resident = List.length entries in
  if resident <= keep then (s, 0)
  else begin
    let doomed = List.sort compare entries in
    let dropped = Hashtbl.create 64 in
    List.iteri
      (fun i (_, proc, sum) ->
        if i < resident - keep then Hashtbl.replace dropped (proc, sum) ())
      doomed;
    let procs =
      List.map
        (fun (proc, npaths, paths) ->
          ( proc,
            npaths,
            List.filter
              (fun (sum, _) -> not (Hashtbl.mem dropped (proc, sum)))
              paths ))
        s.Profile_io.procs
    in
    (Profile_io.canonical { s with Profile_io.procs }, resident - keep)
  end

(* Fold one shard in; enforce the memory budget afterwards.  Under
   pressure the aggregator spills the resident table to disk when it has
   somewhere to put it, otherwise it evicts coldest-first and the run is
   degraded.  The resident count grows by the records the merge added;
   only eviction recounts the table. *)
let agg_add t (s : Profile_io.saved) =
  match
    match t.merged with
    | None -> Ok (Profile_io.canonical s, resident_records s)
    | Some acc -> Profile_io.merge_added acc s
  with
  | Error d ->
      if t.conflict = None then t.conflict <- Some d;
      Error d
  | Ok (merged, added) ->
      t.merged <- Some merged;
      let resident = t.resident + added in
      t.resident <- resident;
      t.peak <- max t.peak resident;
      (match t.max_records with
      | Some budget when resident > budget -> (
          match t.spill_dir with
          | Some dir ->
              Profile_io.to_file (spill_path dir t.spilled) merged;
              t.spilled <- t.spilled + 1;
              t.merged <- None;
              t.resident <- 0
          | None ->
              let survivor, dropped = evict merged ~keep:budget in
              t.merged <- Some survivor;
              t.resident <- resident_records survivor;
              t.evicted <- t.evicted + dropped)
      | _ -> ());
      Ok ()

(* Consolidate the spill files with the resident table.  The ingest path
   is what the budget bounds; this final fold necessarily materialises
   the whole profile once, at shutdown, to write it out. *)
let agg_finish t =
  let spills = List.init t.spilled (fun k -> k) in
  List.fold_left
    (fun acc k ->
      let path = spill_path (Option.get t.spill_dir) k in
      let s = Profile_io.of_file path in
      Sys.remove path;
      match acc with
      | None -> Some s
      | Some acc -> (
          match Profile_io.merge acc s with
          | Ok m -> Some m
          | Error d ->
              if t.conflict = None then t.conflict <- Some d;
              Some acc))
    t.merged spills

(* ------------------------------------------------------------------ *)
(* Client-side: stream a shard into the socket. *)

(* Clients may race the daemon's bind (drive mode forks them before the
   listener exists; CI starts them as separate processes): retry the
   connect briefly before giving up. *)
let with_connection ?(patience = 10.0) ~socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. patience in
  let rec attempt () =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EINTR), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        attempt ()
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Printf.sprintf "connect %s: %s" socket (Unix.error_message e))
  in
  attempt ()

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

(* [corrupt_after (Some k)] simulates a client damaged mid-stream: the
   first [k] frames go out intact, then a burst of garbage, then the
   connection drops — the aggregator must salvage the k-frame prefix. *)
let send_saved ?corrupt_after ~socket (s : Profile_io.saved) =
  with_connection ~socket (fun fd ->
      let frames = List.map Wire.encode_frame (Wire.frames_of_saved s) in
      (match corrupt_after with
      | None -> List.iter (write_all fd) frames
      | Some k ->
          List.iteri (fun i f -> if i < k then write_all fd f) frames;
          write_all fd (String.make 64 '\xff'));
      Ok ())

let send_file ?corrupt_after ~socket path =
  match Profile_io.salvage_file path with
  | Error d -> Error (Diag.to_string d)
  | Ok (s, _) -> send_saved ?corrupt_after ~socket s

(* ------------------------------------------------------------------ *)
(* The server. *)

type verdict = {
  expected : int;
  accepted : int;
  salvaged : int;
  rejected : int;
  spilled : int;
  evicted_records : int;
  peak_records : int;
  bytes : int;
  snapshots : int;
  merged : Profile_io.saved option;
  conflict : Diag.t option;
}

(* Degraded coverage: data was refused or lost (rejected shards, evicted
   records, a merge conflict, or fewer streams than promised).  Salvaged
   prefixes alone do not degrade the service — the damage was contained
   and everything recoverable was kept, matching `pp chaos` recovery. *)
let degraded v =
  v.rejected > 0 || v.evicted_records > 0 || v.conflict <> None
  || v.accepted + v.salvaged < v.expected

type conn = {
  fd : Unix.file_descr;
  reader : Wire.reader;
  mutable header : Wire.header option;
  mutable frames : int;  (* complete frames consumed *)
  mutable procs : int;  (* Proc frames merged *)
  mutable summary : Wire.summary option;
  mutable failed : string option;
}

type state = {
  agg : agg;
  mutable accepted : int;
  mutable salvaged : int;
  mutable rejected : int;
  mutable bytes : int;
  mutable snapshots : int;
  expected : int;
  started : float;
  trace : Trace.t;
}

let reg = Metrics.default

let json_snapshot st =
  let open Pp_telemetry.Json in
  let count, sum, buckets =
    match List.assoc_opt "serve.merge_us" (Metrics.snapshot reg) with
    | Some (Metrics.Histogram { count; sum; buckets }) -> (count, sum, buckets)
    | _ -> (0, 0, [])
  in
  let elapsed = Unix.gettimeofday () -. st.started in
  let done_ = st.accepted + st.salvaged + st.rejected in
  let rate = if elapsed > 0.0 then float_of_int done_ /. elapsed else 0.0 in
  let bucket (k, n) = List [ Int k; Int n ] in
  to_string
    (Object
       [ ("expected", Int st.expected); ("accepted", Int st.accepted);
         ("salvaged", Int st.salvaged); ("rejected", Int st.rejected);
         ("bytes", Int st.bytes); ("resident_records", Int st.agg.resident);
         ("peak_records", Int st.agg.peak); ("spilled", Int st.agg.spilled);
         ("evicted_records", Int st.agg.evicted);
         ("elapsed_s", Fixed (3, elapsed));
         ("ingest_rate_per_s", Fixed (3, rate));
         ( "merge_us",
           Object
             [ ("count", Int count); ("sum", Int sum);
               ("buckets", List (List.map bucket buckets)) ] ) ])

(* Merge one decoded frame into the service state.  Returns [false] when
   the connection must stop being read (protocol violation). *)
let ingest_frame st conn frame =
  conn.frames <- conn.frames + 1;
  match (frame : Wire.frame) with
  | Wire.Hello h -> (
      match conn.header with
      | Some _ ->
          conn.failed <- Some "duplicate hello frame";
          false
      | None -> (
          conn.header <- Some h;
          (* A stream is refused before any of its records touch the
             table if its hello carries what merge would reject on, or a
             hash no shard header can hold. *)
          match st.agg.merged with
          | _ when not (Profile_io.hash_fits_header h.Wire.program_hash) ->
              conn.failed <- Some "program hash no shard header can carry";
              false
          | Some acc
            when acc.Profile_io.program_hash <> h.Wire.program_hash
                 || acc.Profile_io.mode <> h.Wire.mode
                 || acc.Profile_io.pic0 <> h.Wire.pic0
                 || acc.Profile_io.pic1 <> h.Wire.pic1 ->
              conn.failed <- Some "incompatible shard header";
              false
          | _ -> true))
  | Wire.Proc p -> (
      match conn.header with
      | None ->
          conn.failed <- Some "proc frame before hello";
          false
      | Some h -> (
          let mini = Wire.saved_of_frames h [ p ] in
          let t0 = Unix.gettimeofday () in
          let result =
            Trace.with_span st.trace "serve.merge" (fun () ->
                agg_add st.agg mini)
          in
          Metrics.observe reg "serve.merge_us"
            (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
          Metrics.set_gauge reg "serve.resident_records" st.agg.resident;
          match result with
          | Ok () ->
              conn.procs <- conn.procs + 1;
              true
          | Error d ->
              conn.failed <- Some (Diag.to_string d);
              false))
  | Wire.End s ->
      conn.summary <- Some s;
      (* Anything after the end frame is noise; stop reading. *)
      false

(* A connection is over (EOF, corruption or protocol violation): decide
   what it was.  [Accepted] — hello + promised procs + end all arrived.
   [Salvaged] — a decodable prefix was merged but the stream tore.
   [Rejected] — nothing usable (no hello, or refused before any record
   was merged). *)
let close_verdict conn =
  match (conn.failed, conn.header, conn.summary) with
  | None, Some _, Some s when conn.procs = s.Wire.nprocs -> `Accepted
  | _, None, _ -> `Rejected "no usable hello frame"
  | Some msg, Some _, _ when conn.procs = 0 -> `Rejected msg
  | Some msg, Some _, _ -> `Salvaged msg
  | None, Some _, Some _ -> `Salvaged "proc count disagrees with end frame"
  | None, Some _, None -> `Salvaged "stream ended before its end frame"

let finalize_conn st conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  (match close_verdict conn with
  | `Accepted ->
      st.accepted <- st.accepted + 1;
      Metrics.incr reg "serve.shards.accepted" 1
  | `Salvaged msg ->
      st.salvaged <- st.salvaged + 1;
      Metrics.incr reg "serve.shards.salvaged" 1;
      ignore msg;
      Trace.instant st.trace "serve.salvaged"
  | `Rejected msg ->
      st.rejected <- st.rejected + 1;
      Metrics.incr reg "serve.shards.rejected" 1;
      ignore msg;
      Trace.instant st.trace "serve.rejected");
  Metrics.set_gauge reg "serve.peak_records" st.agg.peak

let serve_chunk = Bytes.create 65536

(* Drain one readable connection; [true] while it stays open. *)
let service_conn st conn =
  match Unix.read conn.fd serve_chunk 0 (Bytes.length serve_chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (_, _, _) ->
      finalize_conn st conn;
      false
  | 0 ->
      finalize_conn st conn;
      false
  | n ->
      st.bytes <- st.bytes + n;
      Metrics.incr reg "serve.bytes" n;
      Wire.feed conn.reader (Bytes.sub_string serve_chunk 0 n);
      let rec pump () =
        if conn.failed <> None || conn.summary <> None then begin
          finalize_conn st conn;
          false
        end
        else
          match Wire.next conn.reader with
          | `Need_more -> true
          | `Corrupt msg ->
              conn.failed <- Some msg;
              finalize_conn st conn;
              false
          | `Frame f ->
              let keep = ingest_frame st conn f in
              if keep then pump ()
              else begin
                finalize_conn st conn;
                false
              end
      in
      pump ()

let serve ?max_records ?spill_dir ?(snapshot_every = 0)
    ?(snapshot = fun _ -> ()) ?(snapshot_requested = fun () -> false)
    ?(stop = fun () -> false) ?(trace = Trace.null) ~socket ~expect () =
  if expect <= 0 then invalid_arg "Serve.serve: expect <= 0";
  (if Sys.file_exists socket then
     try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 64;
  let st =
    {
      agg = agg_create ?max_records ?spill_dir ();
      accepted = 0;
      salvaged = 0;
      rejected = 0;
      bytes = 0;
      snapshots = 0;
      expected = expect;
      started = Unix.gettimeofday ();
      trace;
    }
  in
  let take_snapshot () =
    st.snapshots <- st.snapshots + 1;
    snapshot (json_snapshot st)
  in
  let conns = ref [] in
  let finished () = st.accepted + st.salvaged + st.rejected >= expect in
  let last_done = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        !conns;
      if Sys.file_exists socket then
        try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      while (not (finished ())) && not (stop ()) do
        let fds = listener :: List.map (fun c -> c.fd) !conns in
        let readable, _, _ =
          (* A short timeout keeps the signal-driven hooks (snapshots,
             shutdown) responsive while the socket is quiet. *)
          try Unix.select fds [] [] 0.2
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if List.mem listener readable then begin
          match Unix.accept listener with
          | fd, _ ->
              Unix.set_nonblock fd;
              conns :=
                {
                  fd;
                  reader = Wire.reader ();
                  header = None;
                  frames = 0;
                  procs = 0;
                  summary = None;
                  failed = None;
                }
                :: !conns
          | exception Unix.Unix_error (_, _, _) -> ()
        end;
        conns :=
          List.filter
            (fun c ->
              if List.mem c.fd readable then service_conn st c else true)
            !conns;
        if snapshot_requested () then take_snapshot ();
        let done_ = st.accepted + st.salvaged + st.rejected in
        if snapshot_every > 0 && done_ / snapshot_every > !last_done then begin
          last_done := done_ / snapshot_every;
          take_snapshot ()
        end
      done;
      (* Shutdown (all expected streams in, or asked to stop): streams
         still open at this point tore. *)
      List.iter (fun c -> finalize_conn st c) !conns;
      conns := [];
      let merged = agg_finish st.agg in
      take_snapshot ();
      {
        expected = expect;
        accepted = st.accepted;
        salvaged = st.salvaged;
        rejected = st.rejected;
        spilled = st.agg.spilled;
        evicted_records = st.agg.evicted;
        peak_records = st.agg.peak;
        bytes = st.bytes;
        snapshots = st.snapshots;
        merged;
        conflict = st.agg.conflict;
      })

(* ------------------------------------------------------------------ *)
(* Drive mode: fork the clients ourselves — the self-contained e2e the
   CI gate runs.  Each thunk computes one shard in a forked child and
   streams it in; the parent aggregates concurrently.  A child whose
   thunk raises still connects, and closes without a hello: the
   aggregator resolves that stream as rejected instead of waiting for
   it. *)

let drive ?max_records ?spill_dir ?snapshot_every ?snapshot
    ?snapshot_requested ?stop ?trace ~socket clients () =
  let expect = List.length clients in
  if expect = 0 then invalid_arg "Serve.drive: no clients";
  (* Clients fork before the parent binds; with_connection's connect
     retry absorbs the race. *)
  let pids =
    List.map
      (fun thunk ->
        match Unix.fork () with
        | 0 ->
            let code =
              match thunk () with
              | s -> (
                  match send_saved ~socket s with
                  | Ok () -> 0
                  | Error _ | (exception _) -> 1)
              | exception _ ->
                  ignore (with_connection ~socket (fun _ -> Ok ()));
                  1
            in
            Unix._exit code
        | pid -> pid)
      clients
  in
  let verdict =
    serve ?max_records ?spill_dir ?snapshot_every ?snapshot
      ?snapshot_requested ?stop ?trace ~socket ~expect ()
  in
  let failures =
    List.fold_left
      (fun acc pid ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> acc
        | _ -> acc + 1)
      0 pids
  in
  (verdict, failures)
