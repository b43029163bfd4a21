open Pp_ir

type decision = {
  caller : string;
  site : Instr.site;
  callee : string;
  calls : int;
}

(* Can the callee read an integer or float register it never wrote
   (beyond its parameters)?  Such a register is zero in a fresh
   activation but would hold a stale value once inlined, so those callees
   are rejected: exactly the procedures with an uninitialised-read lint
   finding. *)
let reads_clean (q : Proc.t) =
  Pp_analysis.Uninit.warnings (Pp_analysis.Uninit.compute (Cfg.of_proc q))
  = []

let has_prof_ops (q : Proc.t) =
  let found = ref false in
  Proc.iter_instrs
    (fun _ i -> match i with Instr.Prof _ -> found := true | _ -> ())
    q;
  !found

(* Static per-site call facts of the whole program. *)
type static_site = {
  s_args : int;  (** integer + float arguments *)
  s_ret_used : bool;
  s_callee : string;
}

let static_sites (prog : Program.t) =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (p : Proc.t) ->
      Proc.iter_instrs
        (fun _ instr ->
          match instr with
          | Instr.Call { callee; args; fargs; ret; site } ->
              Hashtbl.replace tbl
                (p.Proc.name, site)
                {
                  s_args = List.length args + List.length fargs;
                  s_ret_used = ret <> Instr.Rnone;
                  s_callee = callee;
                }
          | _ -> ())
        p)
    prog.Program.procs;
  tbl

let plan ~(summary : Summary.t) ~max_callee_slots ~min_calls ~budget_slots
    (prog : Program.t) =
  let sites = static_sites prog in
  let candidates =
    match summary.Summary.source with
    | Summary.Context_sensitive ->
        List.filter_map
          (fun (sc : Summary.site_calls) ->
            match Hashtbl.find_opt sites (sc.Summary.caller, sc.Summary.site) with
            | Some st when st.s_callee = sc.Summary.callee ->
                Some
                  {
                    caller = sc.Summary.caller;
                    site = sc.Summary.site;
                    callee = sc.Summary.callee;
                    calls = sc.Summary.calls;
                  }
            | _ -> None)
          summary.Summary.sites
    | Summary.Flat ->
        (* Flat attribution: every site of a callee inherits the callee's
           total call count, however cold the site actually is. *)
        Hashtbl.fold
          (fun (caller, site) st acc ->
            let calls =
              Option.value ~default:0
                (List.assoc_opt st.s_callee summary.Summary.callee_totals)
            in
            { caller; site; callee = st.s_callee; calls } :: acc)
          sites []
  in
  let safe = Hashtbl.create 8 in
  let callee_ok name =
    match Hashtbl.find_opt safe name with
    | Some v -> v
    | None ->
        let v =
          match Program.find_proc prog name with
          | None -> false
          | Some q ->
              Proc.size_slots q <= max_callee_slots
              && (not (has_prof_ops q))
              && reads_clean q
        in
        Hashtbl.replace safe name v;
        v
  in
  let ordered =
    List.sort
      (fun a b ->
        match compare b.calls a.calls with
        | 0 -> compare (a.caller, a.site) (b.caller, b.site)
        | c -> c)
      candidates
  in
  let spent = ref 0 in
  List.filter
    (fun d ->
      d.calls >= min_calls
      && d.caller <> d.callee
      && callee_ok d.callee
      &&
      match Hashtbl.find_opt sites (d.caller, d.site) with
      | None -> false
      | Some st ->
          (* Per-call saving: Call + Ret fetches gone, argument and
             result moves added (the stitching Jmps straighten away). *)
          2 - st.s_args - (if st.s_ret_used then 1 else 0) >= 0
          &&
          let q = Program.proc_exn prog d.callee in
          let growth = Proc.size_slots q + st.s_args + 1 in
          if !spent + growth <= budget_slots then begin
            spent := !spent + growth;
            true
          end
          else false)
    ordered

(* --- applying decisions --- *)

let map_instr ~io ~fo ~frame ~fresh_site instr =
  let i r = r + io and f r = r + fo in
  let dest = function
    | Instr.Rint r -> Instr.Rint (i r)
    | Instr.Rfloat r -> Instr.Rfloat (f r)
    | Instr.Rnone -> Instr.Rnone
  in
  match instr with
  | Instr.Iconst (rd, v) -> Instr.Iconst (i rd, v)
  | Instr.Iconst_sym (rd, s) -> Instr.Iconst_sym (i rd, s)
  | Instr.Fconst (fd, v) -> Instr.Fconst (f fd, v)
  | Instr.Imov (rd, rs) -> Instr.Imov (i rd, i rs)
  | Instr.Fmov (fd, fs) -> Instr.Fmov (f fd, f fs)
  | Instr.Ibinop (op, rd, r1, r2) -> Instr.Ibinop (op, i rd, i r1, i r2)
  | Instr.Ibinop_imm (op, rd, rs, v) -> Instr.Ibinop_imm (op, i rd, i rs, v)
  | Instr.Icmp (c, rd, r1, r2) -> Instr.Icmp (c, i rd, i r1, i r2)
  | Instr.Icmp_imm (c, rd, rs, v) -> Instr.Icmp_imm (c, i rd, i rs, v)
  | Instr.Fbinop (op, fd, f1, f2) -> Instr.Fbinop (op, f fd, f f1, f f2)
  | Instr.Fcmp (c, rd, f1, f2) -> Instr.Fcmp (c, i rd, f f1, f f2)
  | Instr.Itof (fd, rs) -> Instr.Itof (f fd, i rs)
  | Instr.Ftoi (rd, fs) -> Instr.Ftoi (i rd, f fs)
  | Instr.Load (rd, rs, off) -> Instr.Load (i rd, i rs, off)
  | Instr.Store (rs, rb, off) -> Instr.Store (i rs, i rb, off)
  | Instr.Fload (fd, rs, off) -> Instr.Fload (f fd, i rs, off)
  | Instr.Fstore (fs, rb, off) -> Instr.Fstore (f fs, i rb, off)
  | Instr.Call { callee; args; fargs; ret; site = _ } ->
      Instr.Call
        {
          callee;
          args = List.map i args;
          fargs = List.map f fargs;
          ret = dest ret;
          site = fresh_site ();
        }
  | Instr.Callind { target; args; fargs; ret; site = _ } ->
      Instr.Callind
        {
          target = i target;
          args = List.map i args;
          fargs = List.map f fargs;
          ret = dest ret;
          site = fresh_site ();
        }
  | Instr.Hwread (rd, k) -> Instr.Hwread (i rd, k)
  | Instr.Hwzero -> Instr.Hwzero
  | Instr.Hwwrite (rs, k) -> Instr.Hwwrite (i rs, k)
  | Instr.Frameaddr (rd, off) -> Instr.Frameaddr (i rd, off + frame)
  | Instr.Print_int r -> Instr.Print_int (i r)
  | Instr.Print_float fr -> Instr.Print_float (f fr)
  | Instr.Prof _ -> invalid_arg "Inline: profiling pseudo-op in source"

(* Find the block and split point of the call with [site] on [callee]. *)
let find_call blocks ~site ~callee =
  let found = ref None in
  Array.iteri
    (fun bi (b : Block.t) ->
      if !found = None then
        List.iteri
          (fun idx instr ->
            match instr with
            | Instr.Call { site = s; callee = c; _ }
              when s = site && c = callee && !found = None ->
                found := Some (bi, idx)
            | _ -> ())
          b.Block.instrs)
    blocks;
  !found

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let rec drop k = function
  | [] -> []
  | l when k = 0 -> l
  | _ :: tl -> drop (k - 1) tl

let inline_into prog ?weights (p : Proc.t) ds =
  let blocks = ref (Array.copy p.Proc.blocks) in
  let io = p.Proc.niregs and fo = p.Proc.nfregs in
  let frame = p.Proc.frame_words * 8 in
  let extra_frame = ref 0 in
  let next_tmp_site = ref 1_000_000 in
  let fresh_site () =
    let s = !next_tmp_site in
    incr next_tmp_site;
    s
  in
  List.iter
    (fun d ->
      match find_call !blocks ~site:d.site ~callee:d.callee with
      | None -> ()
      | Some (bi, idx) -> (
          match Program.find_proc prog d.callee with
          | None -> ()
          | Some q ->
              let b = !blocks.(bi) in
              let c_args, c_fargs, c_ret =
                match List.nth b.Block.instrs idx with
                | Instr.Call { args; fargs; ret; _ } -> (args, fargs, ret)
                | _ -> assert false
              in
              let prefix = take idx b.Block.instrs in
              let rest = drop (idx + 1) b.Block.instrs in
              let base = Array.length !blocks in
              let cont = base in
              let qlabel l = base + 1 + l in
              let arg_movs =
                List.mapi (fun k a -> Instr.Imov (io + k, a)) c_args
                @ List.mapi
                    (fun k a -> Instr.Fmov (fo + k, a))
                    c_fargs
              in
              let ret_movs = function
                | Block.Ret_void -> []
                | Block.Ret_int r -> (
                    match c_ret with
                    | Instr.Rint rd -> [ Instr.Imov (rd, r + io) ]
                    | Instr.Rfloat _ | Instr.Rnone -> [])
                | Block.Ret_float fr -> (
                    match c_ret with
                    | Instr.Rfloat fd -> [ Instr.Fmov (fd, fr + fo) ]
                    | Instr.Rint _ | Instr.Rnone -> [])
              in
              let copy (qb : Block.t) =
                let instrs =
                  List.map (map_instr ~io ~fo ~frame ~fresh_site) qb.Block.instrs
                in
                let label = qlabel qb.Block.label in
                match qb.Block.term with
                | Block.Jmp l -> { Block.label; instrs; term = Block.Jmp (qlabel l) }
                | Block.Br (r, t, f) ->
                    {
                      Block.label;
                      instrs;
                      term = Block.Br (r + io, qlabel t, qlabel f);
                    }
                | Block.Ret rv ->
                    {
                      Block.label;
                      instrs = instrs @ ret_movs rv;
                      term = Block.Jmp cont;
                    }
              in
              let cont_block =
                { Block.label = cont; instrs = rest; term = b.Block.term }
              in
              let prelude =
                {
                  Block.label = bi;
                  instrs = prefix @ arg_movs;
                  term = Block.Jmp (qlabel q.Proc.entry);
                }
              in
              let copies = Array.map copy q.Proc.blocks in
              let old = !blocks in
              let old_len = Array.length old in
              old.(bi) <- prelude;
              blocks := Array.concat [ old; [| cont_block |]; copies ];
              extra_frame := max !extra_frame q.Proc.frame_words;
              (* Extend the weight vector: the continuation runs as often
                 as the split block; copied blocks inherit the callee's
                 own weights scaled to this site's call count. *)
              Option.iter
                (fun tbl ->
                  let w =
                    match Hashtbl.find_opt tbl p.Proc.name with
                    | Some w when Array.length w = old_len -> w
                    | Some w ->
                        let v = Array.make old_len 0 in
                        Array.blit w 0 v 0 (min (Array.length w) old_len);
                        v
                    | None -> Array.make old_len 0
                  in
                  let wb = w.(bi) in
                  let qw =
                    Option.value
                      ~default:(Array.make (Proc.num_blocks q) 0)
                      (Hashtbl.find_opt tbl d.callee)
                  in
                  let entry_w =
                    if q.Proc.entry < Array.length qw then qw.(q.Proc.entry)
                    else 0
                  in
                  let scale l =
                    if entry_w > 0 && l < Array.length qw then
                      qw.(l) * d.calls / entry_w
                    else d.calls
                  in
                  let copies_w = Array.init (Proc.num_blocks q) scale in
                  Hashtbl.replace tbl p.Proc.name
                    (Array.concat [ w; [| wb |]; copies_w ]))
                weights))
    ds;
  (* Renumber every call site densely; the order is irrelevant to the IR
     invariant (a permutation suffices) but appearance order keeps the
     numbering readable. *)
  let next = ref 0 in
  let renumber instr =
    match instr with
    | Instr.Call { callee; args; fargs; ret; site = _ } ->
        let s = !next in
        incr next;
        Instr.Call { callee; args; fargs; ret; site = s }
    | Instr.Callind { target; args; fargs; ret; site = _ } ->
        let s = !next in
        incr next;
        Instr.Callind { target; args; fargs; ret; site = s }
    | instr -> instr
  in
  let blocks =
    Array.map
      (fun (b : Block.t) ->
        { b with Block.instrs = List.map renumber b.Block.instrs })
      !blocks
  in
  Proc.with_blocks ~entry:p.Proc.entry
    ~frame_words:(p.Proc.frame_words + !extra_frame)
    p blocks

let apply ?weights (prog : Program.t) decisions =
  if decisions = [] then prog
  else
    Program.map_procs
      (fun p ->
        match
          List.filter (fun d -> d.caller = p.Proc.name) decisions
        with
        | [] -> p
        | ds -> inline_into prog ?weights p ds)
      prog
