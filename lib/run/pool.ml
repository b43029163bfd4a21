module Metrics = Pp_telemetry.Metrics

type 'a outcome =
  | Done of 'a
  | Crashed of string
  | Timed_out of float

type task_stat = { task : int; wall : float; status : string; attempts : int }

type stats = {
  jobs : int;
  tasks : int;
  ok : int;
  crashed : int;
  timed_out : int;
  retried : int;
  quarantined : int;
  attempts : int;
  total_wall : float;
  task_stats : task_stat list;
}

(* Jittered exponential delay before retrying [task] after failed attempt
   [attempt]: a 50ms base, doubling, capped at 1s, then scaled by a jitter
   in [1 +/- 0.5].  Deterministic: the jitter draw is a pure function of
   (task, attempt), so a chaos run's retry schedule replays exactly. *)
let delay_for ~task ~attempt =
  let raw = Float.min 1.0 (0.05 *. (2.0 ** float_of_int (attempt - 1))) in
  let u = Pp_vm.Sampling.(unit_float (mix [ 0; task; attempt ])) in
  Float.max 0.0 (raw *. (1.0 +. (0.5 *. ((2.0 *. u) -. 1.0))))

type job = {
  index : int;
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  deadline : float option;
  err : string;  (* temp file capturing the worker's stderr *)
}

let chunk = Bytes.create 65536

(* What a task that raised reports after "crashed: ": the failure in the
   pool's own words, not the OCaml path of the exception that carried it
   (which would change the output whenever the exception moves). *)
let crash_message = function
  | Failure msg -> msg
  | Pp_core.Crc32.Killed_mid_write -> "killed mid-write"
  | e -> Printexc.to_string e

(* One worker: fork, evaluate, marshal the result (or the exception's
   rendering) back over a pipe together with the worker's metrics delta,
   and exit without running at_exit handlers.  The delta is against the
   registry as inherited at fork, so parent-recorded values never
   double-count when absorbed back. *)
let spawn ~index ~deadline f x =
  let rd, wr = Unix.pipe ~cloexec:false () in
  let err = Filename.temp_file "pp-pool" ".stderr" in
  (* Flush before forking so the child never inherits half-written
     parent output it could replay through the redirected channel. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (* Concurrent workers sharing the parent's stderr tear each
         other's (and the parent footer's) lines mid-write.  Each worker
         writes to a private capture file instead; the parent replays it
         in one atomic write at reap time. *)
      (try
         let efd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
         Unix.dup2 efd Unix.stderr;
         Unix.close efd
       with Unix.Unix_error _ -> ());
      let at_fork = Metrics.snapshot Metrics.default in
      let payload =
        match f x with
        | v -> Ok v
        | exception e -> Error (crash_message e)
      in
      let delta = Metrics.diff (Metrics.snapshot Metrics.default) at_fork in
      let bytes = Marshal.to_bytes (payload, delta) [] in
      let oc = Unix.out_channel_of_descr wr in
      output_bytes oc bytes;
      flush oc;
      flush Stdlib.stderr;
      (* _exit semantics: skip at_exit/flushing of inherited channels, which
         would duplicate the parent's buffered output. *)
      Unix._exit 0
  | pid ->
      Unix.close wr;
      (* Nonblocking so the parent can drain a readable pipe to EAGAIN
         without wedging on the last partial chunk. *)
      Unix.set_nonblock rd;
      { index; pid; fd = rd; buf = Buffer.create 1024; deadline; err }

(* Drain everything currently buffered in the pipe.  A single [read]
   returns an arbitrary prefix of the worker's payload — results larger
   than the pipe capacity arrive in many pieces — so loop until the pipe
   reports empty ([`More]) or closed ([`Eof]). *)
let drain job =
  let rec go () =
    match Unix.read job.fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | k ->
        Buffer.add_subbytes job.buf chunk 0 k;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        `More
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Replay a reaped worker's captured stderr through the parent in a
   single write, then drop the capture file.  Serializing through the
   parent is what keeps concurrent workers' diagnostics line-atomic. *)
let relay_stderr job =
  (match
     let ic = open_in_bin job.err in
     let n = in_channel_length ic in
     let s = really_input_string ic n in
     close_in ic;
     s
   with
  | "" -> ()
  | s ->
      flush stderr;
      prerr_string s;
      flush stderr
  | exception Sys_error _ -> ());
  try Sys.remove job.err with Sys_error _ -> ()

let finish job results status =
  Unix.close job.fd;
  relay_stderr job;
  (match status with
  | Unix.WEXITED 0 when Buffer.length job.buf > 0 -> (
      match Marshal.from_bytes (Buffer.to_bytes job.buf) 0 with
      | Ok v, delta ->
          Metrics.absorb Metrics.default delta;
          results.(job.index) <- Some (Done v)
      | Error msg, delta ->
          Metrics.absorb Metrics.default delta;
          results.(job.index) <- Some (Crashed msg)
      | exception _ ->
          results.(job.index) <- Some (Crashed "worker sent a torn result"))
  | Unix.WEXITED 0 ->
      results.(job.index) <- Some (Crashed "worker exited without a result")
  | Unix.WEXITED n ->
      results.(job.index) <- Some (Crashed (Printf.sprintf "exit code %d" n))
  | Unix.WSIGNALED s ->
      results.(job.index) <- Some (Crashed (Printf.sprintf "killed by signal %d" s))
  | Unix.WSTOPPED s ->
      results.(job.index) <- Some (Crashed (Printf.sprintf "stopped by signal %d" s)))

let kill_and_reap job results elapsed =
  (try Unix.kill job.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] job.pid);
  Unix.close job.fd;
  relay_stderr job;
  results.(job.index) <- Some (Timed_out elapsed)

let map_forked ~jobs ~timeout f xs =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = ref 0 in
  let live = ref [] in
  let now () = Unix.gettimeofday () in
  let start = Array.make n 0.0 in
  let wall = Array.make n 0.0 in
  while !next < n || !live <> [] do
    (* Fill free slots. *)
    while !next < n && List.length !live < jobs do
      let i = !next in
      incr next;
      start.(i) <- now ();
      let deadline = Option.map (fun t -> start.(i) +. t) timeout in
      live := spawn ~index:i ~deadline f tasks.(i) :: !live
    done;
    (* Wait for output or the earliest deadline. *)
    let select_timeout =
      List.fold_left
        (fun acc job ->
          match job.deadline with
          | None -> acc
          | Some d ->
              let remaining = Float.max 0.0 (d -. now ()) in
              if acc < 0.0 then remaining else Float.min acc remaining)
        (-1.0) !live
    in
    let fds = List.map (fun j -> j.fd) !live in
    let readable, _, _ =
      try Unix.select fds [] [] select_timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let still_live = ref [] in
    List.iter
      (fun job ->
        if List.mem job.fd readable then begin
          match drain job with
          | `More -> still_live := job :: !still_live
          | `Eof ->
              (* Worker finished (or died); reap it. *)
              let _, status = Unix.waitpid [] job.pid in
              wall.(job.index) <- now () -. start.(job.index);
              finish job results status
        end
        else
          match job.deadline with
          | Some d when now () >= d ->
              let elapsed = now () -. start.(job.index) in
              wall.(job.index) <- elapsed;
              kill_and_reap job results elapsed
          | _ -> still_live := job :: !still_live)
      !live;
    live := List.rev !still_live
  done;
  (Array.to_list (Array.map Option.get results), Array.to_list wall)

let map_inline f xs =
  List.map
    (fun x ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        match f x with
        | v -> Done v
        | exception e -> Crashed (crash_message e)
      in
      (outcome, Unix.gettimeofday () -. t0))
    xs
  |> List.split

let can_fork =
  (* Unix.fork is unavailable on Windows; degrade to in-process there. *)
  not Sys.win32

let describe = function
  | Done _ -> "ok"
  | Crashed msg -> "crashed: " ^ msg
  | Timed_out t -> Printf.sprintf "timed out after %.1fs" t

let map_retry ?(jobs = 1) ?timeout ?(retries = 1) ?(sleep = Unix.sleepf)
    ?verify f xs =
  let t0 = Unix.gettimeofday () in
  let jobs = if can_fork then max 1 jobs else 1 in
  let retries = max 1 retries in
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let results = Array.make n (Crashed "never ran") in
  let walls = Array.make n 0.0 in
  let attempts = Array.make n 0 in
  let pending = ref (List.init n Fun.id) in
  let round = ref 0 in
  while !pending <> [] && !round < retries do
    incr round;
    let a = !round in
    if a > 1 then begin
      (* One parent-side sleep per retry round: the longest jittered delay
         any retried task asks for.  Failed tasks within a round then rerun
         concurrently, which keeps the schedule deterministic and the
         wall-clock bounded by the slowest backoff, not their sum. *)
      let d =
        List.fold_left
          (fun acc i -> Float.max acc (delay_for ~task:i ~attempt:(a - 1)))
          0.0 !pending
      in
      if d > 0.0 then sleep d
    end;
    let idxs = !pending in
    let g x = f ~attempt:a x in
    let sub = List.map (fun i -> tasks.(i)) idxs in
    let outs, ws =
      if jobs <= 1 then map_inline g sub else map_forked ~jobs ~timeout g sub
    in
    let failed = ref [] in
    List.iter2
      (fun i (o, w) ->
        attempts.(i) <- a;
        walls.(i) <- walls.(i) +. w;
        let o =
          match (o, verify) with
          | Done v, Some check -> (
              match check tasks.(i) v with
              | Ok () -> Done v
              | Error msg -> Crashed msg)
          | o, _ -> o
        in
        results.(i) <- o;
        match o with Done _ -> () | _ -> failed := i :: !failed)
      idxs
      (List.combine outs ws);
    pending := List.rev !failed
  done;
  let outcomes = Array.to_list results in
  let count p = List.length (List.filter p outcomes) in
  let ok = count (function Done _ -> true | _ -> false) in
  let crashed = count (function Crashed _ -> true | _ -> false) in
  let timed_out = count (function Timed_out _ -> true | _ -> false) in
  let retried =
    Array.fold_left (fun acc a -> if a > 1 then acc + 1 else acc) 0 attempts
  in
  let total_attempts = Array.fold_left ( + ) 0 attempts in
  let quarantined = List.length !pending in
  let task_stats =
    List.mapi
      (fun i o ->
        {
          task = i;
          wall = walls.(i);
          status = describe o;
          attempts = attempts.(i);
        })
      outcomes
  in
  let m = Metrics.default in
  Metrics.incr m "pool.tasks" n;
  Metrics.incr m "pool.ok" ok;
  Metrics.incr m "pool.crashed" crashed;
  Metrics.incr m "pool.timed_out" timed_out;
  Metrics.incr m "pool.attempts" total_attempts;
  Metrics.incr m "pool.retried" retried;
  Metrics.incr m "pool.quarantined" quarantined;
  ( outcomes,
    {
      jobs;
      tasks = n;
      ok;
      crashed;
      timed_out;
      retried;
      quarantined;
      attempts = total_attempts;
      total_wall = Unix.gettimeofday () -. t0;
      task_stats;
    } )

let map_stats ?jobs ?timeout f xs =
  map_retry ?jobs ?timeout ~retries:1 (fun ~attempt:_ x -> f x) xs

let map ?jobs f xs = fst (map_stats ?jobs f xs)

let footer s =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "pool: %d task%s over %d job%s in %.2fs (%d ok"
    s.tasks
    (if s.tasks = 1 then "" else "s")
    s.jobs
    (if s.jobs = 1 then "" else "s")
    s.total_wall s.ok;
  if s.crashed > 0 then Printf.bprintf buf ", %d crashed" s.crashed;
  if s.timed_out > 0 then Printf.bprintf buf ", %d timed out" s.timed_out;
  if s.retried > 0 then Printf.bprintf buf ", %d retried" s.retried;
  if s.quarantined > 0 then
    Printf.bprintf buf ", %d quarantined" s.quarantined;
  Buffer.add_string buf ")\n";
  if s.attempts > s.tasks then
    Printf.bprintf buf "  attempts: %d over %d tasks\n" s.attempts s.tasks;
  (match
     List.fold_left
       (fun acc t -> match acc with
         | Some best when best.wall >= t.wall -> acc
         | _ -> Some t)
       None s.task_stats
   with
  | Some slowest when s.tasks > 1 ->
      Printf.bprintf buf "  slowest task %d: %.2fs\n" slowest.task
        slowest.wall
  | _ -> ());
  List.iter
    (fun t ->
      if t.status <> "ok" then
        Printf.bprintf buf "  task %d: %s (%.2fs, %d attempt%s)\n" t.task
          t.status t.wall t.attempts
          (if t.attempts = 1 then "" else "s"))
    s.task_stats;
  Buffer.contents buf
