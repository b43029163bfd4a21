module Digraph = Pp_graph.Digraph
module I = Pp_ir.Instr
module Block = Pp_ir.Block
module Proc = Pp_ir.Proc
module Cfg = Pp_ir.Cfg

type category = Path_register | Table_commit | Cct_probe | Counter_read

let categories = [ Path_register; Table_commit; Cct_probe; Counter_read ]

let index = function
  | Path_register -> 0
  | Table_commit -> 1
  | Cct_probe -> 2
  | Counter_read -> 3

let tally_into tally cat instrs =
  let i = index cat in
  List.iter (fun instr -> tally.(i) <- tally.(i) + I.insts instr) instrs

(* The code bound for one place, its instructions per category, and the
   category of its first instruction. *)
type chunk = {
  mutable code : I.t list;
  tally : int array;
  mutable lead : category option;
}

let tally () = Array.make (List.length categories) 0
let chunk () = { code = []; tally = tally (); lead = None }

type t = {
  proc : Proc.t;
  cfg : Cfg.t;
  mutable next_ireg : int;
  mutable extra_frame_words : int;
  entry : chunk;
  edge_code : (int, chunk) Hashtbl.t;  (* edge id -> code *)
  returns : chunk;
  mutable call_wraps :
    (category * (site:int -> indirect:bool -> I.t list * I.t list)) list;
  mutable lead : category option;  (* the first edit's *)
}

let create proc =
  {
    proc;
    cfg = Cfg.of_proc proc;
    next_ireg = proc.Proc.niregs;
    extra_frame_words = 0;
    entry = chunk ();
    edge_code = Hashtbl.create 16;
    returns = chunk ();
    call_wraps = [];
    lead = None;
  }

let note_lead t cat = if t.lead = None then t.lead <- Some cat

let add t ch cat instrs =
  if instrs <> [] then begin
    ch.code <- ch.code @ instrs;
    tally_into ch.tally cat instrs;
    if ch.lead = None then ch.lead <- Some cat;
    note_lead t cat
  end

let original t = t.proc
let cfg t = t.cfg

let new_ireg t =
  let r = t.next_ireg in
  t.next_ireg <- r + 1;
  r

let alloc_spill_slot t =
  let off = (t.proc.Proc.frame_words + t.extra_frame_words) * 8 in
  t.extra_frame_words <- t.extra_frame_words + 1;
  off

let at_entry t cat instrs = add t t.entry cat instrs

let on_edge t cat (e : Digraph.edge) instrs =
  (match Cfg.role t.cfg e with
  | Cfg.Entry ->
      invalid_arg "Editor.on_edge: use at_entry for the ENTRY edge"
  | Cfg.Jump | Cfg.Branch_true | Cfg.Branch_false | Cfg.Return -> ());
  let ch =
    match Hashtbl.find_opt t.edge_code e.id with
    | Some ch -> ch
    | None ->
        let ch = chunk () in
        Hashtbl.replace t.edge_code e.id ch;
        ch
  in
  add t ch cat instrs

let before_returns t cat instrs = add t t.returns cat instrs

let around_calls t cat f =
  note_lead t cat;
  t.call_wraps <- t.call_wraps @ [ (cat, f) ]

let wrap_calls t tally instrs =
  if t.call_wraps = [] then instrs
  else
    List.concat_map
      (fun instr ->
        match instr with
        | I.Call { site; _ } | I.Callind { site; _ } ->
            let indirect =
              match instr with I.Callind _ -> true | _ -> false
            in
            let before, after =
              List.fold_left
                (fun (b, a) (cat, f) ->
                  let b', a' = f ~site ~indirect in
                  tally_into tally cat b';
                  tally_into tally cat a';
                  (b @ b', a' @ a))
                ([], []) t.call_wraps
            in
            before @ (instr :: after)
        | _ -> [ instr ])
      instrs

let sum_into dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src

(* An added block: its code's tally plus its closing jump, counted with
   its first instruction (the editor's first edit when it has none). *)
let added_block_tally t ch =
  let counts = Array.copy ch.tally in
  (match if ch.lead = None then t.lead else ch.lead with
  | Some c -> counts.(index c) <- counts.(index c) + 1
  | None -> ());
  counts

let finish t =
  let p = t.proc in
  let g = t.cfg.Cfg.graph in
  let n = Proc.num_blocks p in
  (* Decide a placement for each edge with code. *)
  let appends = Array.make n [] in  (* per src label, before terminator *)
  let prepends = Array.make n [] in  (* per dst label, at block head *)
  let counts = Array.init n (fun _ -> tally ()) in  (* per original label *)
  let splits = ref [] in  (* (edge, chunk) needing a fresh block *)
  Hashtbl.iter
    (fun edge_id ch ->
      let e = Digraph.edge g edge_id in
      match Cfg.role t.cfg e with
      | Cfg.Entry -> assert false
      | Cfg.Jump | Cfg.Return ->
          (* The edge is its source's only departure. *)
          appends.(e.src) <- appends.(e.src) @ ch.code;
          sum_into counts.(e.src) ch.tally
      | Cfg.Branch_true | Cfg.Branch_false ->
          if Digraph.in_degree g e.dst = 1 then begin
            prepends.(e.dst) <- prepends.(e.dst) @ ch.code;
            sum_into counts.(e.dst) ch.tally
          end
          else splits := (e, ch) :: !splits)
    t.edge_code;
  let splits = List.rev !splits in
  (* Fresh labels: original blocks keep theirs; splits then the preamble. *)
  let next_label = ref n in
  let fresh () =
    let l = !next_label in
    next_label := l + 1;
    l
  in
  let split_label =
    List.map
      (fun (e, ch) ->
        let l = fresh () in
        (e, l, ch))
      splits
  in
  let rewritten =
    Array.map
      (fun (b : Block.t) ->
        let instrs = wrap_calls t counts.(b.label) b.instrs in
        let instrs = prepends.(b.label) @ instrs @ appends.(b.label) in
        let instrs =
          match b.term with
          | Block.Ret _ ->
              sum_into counts.(b.label) t.returns.tally;
              instrs @ t.returns.code
          | Block.Jmp _ | Block.Br _ -> instrs
        in
        (* Redirect split branch arms to their trampoline blocks. *)
        let term =
          match b.term with
          | Block.Br (r, tl, fl) ->
              let redirect role current =
                match
                  List.find_opt
                    (fun ((e : Digraph.edge), _, _) ->
                      e.src = b.label && Cfg.role t.cfg e = role)
                    split_label
                with
                | Some (_, l, _) -> l
                | None -> current
              in
              Block.Br
                ( r,
                  redirect Cfg.Branch_true tl,
                  redirect Cfg.Branch_false fl )
          | (Block.Jmp _ | Block.Ret _) as term -> term
        in
        { b with Block.instrs; term })
      p.Proc.blocks
  in
  let split_blocks =
    List.map
      (fun ((e : Digraph.edge), l, ch) ->
        { Block.label = l; instrs = ch.code; term = Block.Jmp e.dst })
      split_label
  in
  let entry_label = fresh () in
  let preamble =
    {
      Block.label = entry_label;
      instrs = t.entry.code;
      term = Block.Jmp p.Proc.entry;
    }
  in
  let blocks =
    Array.of_list
      (Array.to_list rewritten @ split_blocks @ [ preamble ])
  in
  let counts =
    Array.concat
      [
        counts;
        Array.of_list
          (List.map (fun (_, _, ch) -> added_block_tally t ch) split_label);
        [| added_block_tally t t.entry |];
      ]
  in
  ( Proc.with_blocks ~entry:entry_label
      ~frame_words:(p.Proc.frame_words + t.extra_frame_words)
      p blocks,
    counts )
