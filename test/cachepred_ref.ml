(* Reference model for the differential property in test_cachepred.ml:
   Cachepred's must/may domain as it stood before the must state was
   split per cache set — one flat line -> age map, every access ageing
   the whole map through [target_sets]. *)

module Dataflow = Pp_analysis.Dataflow

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

type state = {
  m_abs : int IMap.t;  (* line -> LRU age upper bound, < associativity *)
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

let join a b =
  let meet_ages m1 m2 =
    IMap.merge
      (fun _ x y ->
        match (x, y) with Some x, Some y -> Some (max x y) | _ -> None)
      m1 m2
  in
  {
    m_abs = meet_ages a.m_abs b.m_abs;
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
  IMap.equal ( = ) a.m_abs b.m_abs
  && IMap.equal ( = ) a.m_fr b.m_fr
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

let must_hit s = function
  | Line l -> IMap.mem l s.m_abs
  | Lines ls -> ls <> [] && List.for_all (fun l -> IMap.mem l s.m_abs) ls
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
      if must_hit s t then Hit
      else if not (may_hit geom s t) then Miss
      else Unknown

(* Set indices a target can map to; [None] = unknown (any set). *)
let target_sets geom = function
  | Line l -> Some (ISet.singleton (Model.set_of_line geom l))
  | Lines ls ->
      Some
        (List.fold_left
           (fun s l -> ISet.add (Model.set_of_line geom l) s)
           ISet.empty ls)
  | Frame _ | Top_prof | Top_frame | Top -> None

let abs_affected geom sets l =
  match sets with
  | None -> true
  | Some ss -> ISet.mem (Model.set_of_line geom l) ss

let fr_affected geom tgt o' =
  match tgt with
  | Frame o -> fr_same_set_possible geom o o'
  | Line _ | Lines _ | Top_prof | Top_frame | Top -> true

(* Age every entry that shares a set with the access (except the exactly
   named target, which the caller re-inserts or promotes).  [evict]
   distinguishes a possible fill (ages can cross associativity and the
   entry leaves must) from a pure promotion (capped: no line entered the
   set, so true ages stay below associativity). *)
let age_affected geom s tgt ~evict =
  let aw = geom.Config.associativity in
  let sets = target_sets geom tgt in
  let keep_exact_line l =
    match tgt with Line l' -> l = l' | _ -> false
  in
  let keep_exact_fr o = match tgt with Frame o' -> o = o' | _ -> false in
  let bump age = if evict then age + 1 else min (age + 1) (aw - 1) in
  let m_abs =
    IMap.filter_map
      (fun l age ->
        if keep_exact_line l || not (abs_affected geom sets l) then Some age
        else
          let age = bump age in
          if age >= aw then None else Some age)
      s.m_abs
  in
  let m_fr =
    IMap.filter_map
      (fun o age ->
        if keep_exact_fr o || not (fr_affected geom tgt o) then Some age
        else
          let age = bump age in
          if age >= aw then None else Some age)
      s.m_fr
  in
  { s with m_abs; m_fr }

let may_add tgt may =
  match tgt with
  | Line l -> { may with abs = ISet.add l may.abs }
  | Lines ls -> { may with abs = List.fold_left (Fun.flip ISet.add) may.abs ls }
  | Frame o -> { may with fr = ISet.add o may.fr }
  | Top_prof -> { may with prof = true }
  | Top_frame -> { may with frtop = true }
  | Top -> { may with top = true }

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
      | Line l when IMap.mem l s.m_abs ->
          { s with m_abs = IMap.add l 0 s.m_abs }
      | _ -> s)
  | Read tgt ->
      let hit = must_hit s tgt in
      let s = age_affected geom s tgt ~evict:(not hit) in
      (* After a read the referenced line is resident (hit or fill), so an
         exactly named target enters must at age 0. *)
      let s =
        match tgt with
        | Line l -> { s with m_abs = IMap.add l 0 s.m_abs }
        | Frame o -> { s with m_fr = IMap.add o 0 s.m_fr }
        | Lines _ | Top_prof | Top_frame | Top -> s
      in
      { s with may = may_add tgt s.may }
  | Read_maybe tgt ->
      (* May or may not execute: its possible fill ages neighbours, but
         nothing becomes guaranteed-resident. *)
      let s = age_affected geom s tgt ~evict:true in
      { s with may = may_add tgt s.may }

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
