module Config = Pp_machine.Config
module Model = Pp_machine.Model
module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type target =
  | Line of int
  | Lines of int list
  | Frame of int
  | Top_prof
  | Top_frame
  | Top

type access =
  | Read of target
  | Read_maybe of target
  | Write of target
  | Havoc
type classification = Hit | Miss | Unknown

type may = {
  abs : ISet.t;  (* concrete lines possibly resident *)
  fr : ISet.t;  (* frame byte offsets whose line is possibly resident *)
  prof : bool;  (* some profiling-segment line possibly resident *)
  frtop : bool;  (* some stack line at an unknown offset possibly resident *)
  top : bool;
}

(* The must state is kept per cache set: an LRU access only ages the
   lines of its own set, so an exact reference touches one inner map.
   Canonical — no set maps to an empty inner map — so structural
   equality is the lattice's equality. *)
type state = {
  m_abs : int IMap.t IMap.t;  (* set -> line -> LRU age upper bound, < aw *)
  m_fr : int IMap.t;  (* frame byte offset -> age upper bound *)
  may : may;
}

let may_bot = { abs = ISet.empty; fr = ISet.empty; prof = false; frtop = false; top = false }

let entry ~cold =
  {
    m_abs = IMap.empty;
    m_fr = IMap.empty;
    may = (if cold then may_bot else { may_bot with top = true });
  }

let havoc s =
  { m_abs = IMap.empty; m_fr = IMap.empty; may = { s.may with top = true } }

let meet_ages m1 m2 =
  IMap.merge
    (fun _ x y ->
      match (x, y) with Some x, Some y -> Some (Int.max x y) | _ -> None)
    m1 m2

let join a b =
  {
    m_abs =
      IMap.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y ->
              let m = meet_ages x y in
              if IMap.is_empty m then None else Some m
          | _ -> None)
        a.m_abs b.m_abs;
    m_fr = meet_ages a.m_fr b.m_fr;
    may =
      {
        abs = ISet.union a.may.abs b.may.abs;
        fr = ISet.union a.may.fr b.may.fr;
        prof = a.may.prof || b.may.prof;
        frtop = a.may.frtop || b.may.frtop;
        top = a.may.top || b.may.top;
      };
  }

let equal a b =
  IMap.equal (IMap.equal Int.equal) a.m_abs b.m_abs
  && IMap.equal Int.equal a.m_fr b.m_fr
  && ISet.equal a.may.abs b.may.abs
  && ISet.equal a.may.fr b.may.fr
  && a.may.prof = b.may.prof
  && a.may.frtop = b.may.frtop
  && a.may.top = b.may.top

(* Two offsets from the same (unknown, word-aligned) frame base share a
   cache line only when they are less than a line apart: the address
   difference equals the offset difference, and a full line of distance
   always crosses a line boundary. *)
let fr_same_line geom o o' = abs (o - o') < geom.Config.line_bytes

(* ... and they can map to the same set only when their line distance is
   zero or wraps the whole set space. *)
let fr_same_set_possible geom o o' =
  let d = abs (o - o') in
  let lb = geom.Config.line_bytes in
  d < lb || d >= (Model.num_sets geom - 1) * lb

let must_line geom s l =
  match IMap.find_opt (Model.set_of_line geom l) s.m_abs with
  | Some m -> IMap.mem l m
  | None -> false

let must_hit geom s = function
  | Line l -> must_line geom s l
  | Lines ls -> ls <> [] && List.for_all (must_line geom s) ls
  | Frame o -> IMap.mem o s.m_fr
  | Top_prof | Top_frame | Top -> false

(* Over-approximate "could this reference hit?".  Address spaces are
   disjoint (Layout): concrete [Line]s name data/heap/code addresses and
   can never equal a profiling-segment or stack line, so the [prof] and
   [frtop] flags are consulted only by symbolic targets. *)
let may_hit geom s = function
  | Line l -> s.may.top || ISet.mem l s.may.abs
  | Lines ls -> s.may.top || List.exists (fun l -> ISet.mem l s.may.abs) ls
  | Frame o ->
      s.may.top || s.may.frtop
      || ISet.exists (fun o' -> fr_same_line geom o o') s.may.fr
  | Top_prof -> s.may.top || s.may.prof
  | Top_frame -> s.may.top || s.may.frtop || not (ISet.is_empty s.may.fr)
  | Top ->
      s.may.top || s.may.prof || s.may.frtop
      || (not (ISet.is_empty s.may.abs))
      || not (ISet.is_empty s.may.fr)

let classify geom s access =
  match access with
  | Havoc -> Unknown
  | Read t | Read_maybe t | Write t ->
      if must_hit geom s t then Hit
      else if not (may_hit geom s t) then Miss
      else Unknown

(* Age the entries of one age map except those [skip] names (the exactly
   named target, which the caller re-inserts or promotes, and frame slots
   that cannot share its set).  [evict] distinguishes a possible fill
   (ages can cross associativity and the entry leaves must) from a pure
   promotion (capped: no line entered the set, so true ages stay below
   associativity). *)
let age_map ~aw ~evict ~skip m =
  IMap.filter_map
    (fun k age ->
      if skip k then Some age
      else if evict then if age + 1 >= aw then None else Some (age + 1)
      else Some (Int.min (age + 1) (aw - 1)))
    m

let skip_none _ = false

(* Age one set of the must map, dropping it when it empties. *)
let age_set ~aw ~evict ~skip m_abs set =
  match IMap.find_opt set m_abs with
  | None -> m_abs
  | Some m ->
      let m' = age_map ~aw ~evict ~skip m in
      if IMap.is_empty m' then IMap.remove set m_abs
      else IMap.add set m' m_abs

(* Age every entry that shares a set with the access.  An exact [Line]
   ages its own set, [Lines] only theirs; a symbolic target may map to
   any set, so it ages all of them — for a direct-mapped cache ([aw = 1])
   that empties must on a possible fill and changes nothing on a
   promotion.  A concrete line's frame position is unknown, so every
   access but a [Frame] ages all frame entries. *)
let age_affected geom s tgt ~evict =
  let aw = geom.Config.associativity in
  let m_abs =
    if IMap.is_empty s.m_abs then s.m_abs
    else
      match tgt with
      | Line l ->
          age_set ~aw ~evict ~skip:(Int.equal l) s.m_abs
            (Model.set_of_line geom l)
      | Lines ls ->
          List.sort_uniq Int.compare (List.map (Model.set_of_line geom) ls)
          |> List.fold_left (age_set ~aw ~evict ~skip:skip_none) s.m_abs
      | Frame _ | Top_prof | Top_frame | Top ->
          if aw = 1 then if evict then IMap.empty else s.m_abs
          else
            IMap.filter_map
              (fun _ m ->
                let m' = age_map ~aw ~evict ~skip:skip_none m in
                if IMap.is_empty m' then None else Some m')
              s.m_abs
  in
  let m_fr =
    if IMap.is_empty s.m_fr then s.m_fr
    else
      match tgt with
      | Frame o ->
          age_map ~aw ~evict
            ~skip:(fun o' -> o' = o || not (fr_same_set_possible geom o o'))
            s.m_fr
      | Line _ | Lines _ | Top_prof | Top_frame | Top ->
          age_map ~aw ~evict ~skip:skip_none s.m_fr
  in
  { s with m_abs; m_fr }

let add_line geom l m_abs =
  IMap.update (Model.set_of_line geom l)
    (function
      | None -> Some (IMap.singleton l 0) | Some m -> Some (IMap.add l 0 m))
    m_abs

let may_add tgt may =
  match tgt with
  | Line l ->
      if ISet.mem l may.abs then may else { may with abs = ISet.add l may.abs }
  | Lines ls ->
      if List.for_all (fun l -> ISet.mem l may.abs) ls then may
      else { may with abs = List.fold_left (Fun.flip ISet.add) may.abs ls }
  | Frame o ->
      if ISet.mem o may.fr then may else { may with fr = ISet.add o may.fr }
  | Top_prof -> if may.prof then may else { may with prof = true }
  | Top_frame -> if may.frtop then may else { may with frtop = true }
  | Top -> if may.top then may else { may with top = true }

let step geom s access =
  match access with
  | Havoc -> havoc s
  | Write tgt ->
      (* Non-allocating write-through: no fill, no eviction, no new
         residency.  A write hit can still promote its line, ageing the
         rest of the set (capped — nothing entered). *)
      let s = age_affected geom s tgt ~evict:false in
      (match tgt with
      | Frame o when IMap.mem o s.m_fr ->
          { s with m_fr = IMap.add o 0 s.m_fr }
      | Line l when must_line geom s l ->
          { s with m_abs = add_line geom l s.m_abs }
      | _ -> s)
  | Read tgt ->
      let hit = must_hit geom s tgt in
      let s = age_affected geom s tgt ~evict:(not hit) in
      (* After a read the referenced line is resident (hit or fill), so an
         exactly named target enters must at age 0. *)
      let s =
        match tgt with
        | Line l -> { s with m_abs = add_line geom l s.m_abs }
        | Frame o -> { s with m_fr = IMap.add o 0 s.m_fr }
        | Lines _ | Top_prof | Top_frame | Top -> s
      in
      let may = may_add tgt s.may in
      if may == s.may then s else { s with may }
  | Read_maybe tgt ->
      (* May or may not execute: its possible fill ages neighbours, but
         nothing becomes guaranteed-resident. *)
      let s = age_affected geom s tgt ~evict:true in
      let may = may_add tgt s.may in
      if may == s.may then s else { s with may }

type solution = { block_in : state array; block_out : state array }

let solve geom ~nblocks ~entry:entry_block ~succs ~events ~cold =
  let unknown = entry ~cold:false in
  let transfer st evs = Array.fold_left (step geom) st evs in
  let ins =
    Dataflow.solve ~size:nblocks ~start:entry_block ~init:(entry ~cold)
      ~step:(fun b st ->
        let out = transfer st (events b) in
        List.filter_map
          (fun s -> if s >= 0 && s < nblocks then Some (s, out) else None)
          (succs b))
      ~merge:(fun _ old out ->
        let merged = join old out in
        if equal old merged then None else Some merged)
  in
  let block_in =
    Array.init nblocks (fun b ->
        match ins.(b) with Some st -> st | None -> unknown)
  in
  let block_out =
    Array.init nblocks (fun b -> transfer block_in.(b) (events b))
  in
  { block_in; block_out }

let persistent geom ~body_events target =
  match target with
  | Line l ->
      let sl = Model.set_of_line geom l in
      let benign = function
        | Havoc -> false
        | Write _ -> true (* stores never evict *)
        | Read t | Read_maybe t -> (
            match t with
            | Line l' -> l' = l || Model.set_of_line geom l' <> sl
            | Lines ls ->
                List.for_all
                  (fun l' -> l' = l || Model.set_of_line geom l' <> sl)
                  ls
            | Frame _ | Top_prof | Top_frame | Top -> false)
      in
      List.for_all (fun evs -> Array.for_all benign evs) body_events
  | Lines _ | Frame _ | Top_prof | Top_frame | Top -> false
