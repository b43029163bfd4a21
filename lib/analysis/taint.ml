(** Two-point taint lattice plus the per-procedure policy that designates
    which locations hold instrumentation state.

    Taint marks values derived from instrumentation-introduced state: the
    Ball–Larus path register (or its spill slot), hardware-counter reads
    and path-table cells.  {!Absint} threads taint through every transfer
    function; the non-interference client ({!Verifier.prove_proc}) then
    checks that no tainted value reaches a program-visible sink. *)

type t = Clean | Tainted

let join a b = match (a, b) with Clean, Clean -> Clean | _ -> Tainted
let equal (a : t) b = a = b

let pp ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Tainted -> Format.pp_print_string ppf "tainted"

(** Which locations are instrumentation state.  [path_reg] / [path_slot]
    are {e always-tainted locations}: the path register is built from
    plain constants, so pure data-flow would never mark it — the policy
    does.  [fresh_slots] is the half-open byte range of frame slots the
    instrumenter allocated ([lo, hi)); stores into it are
    instrumentation-owned and not program-visible. *)
type policy = {
  path_reg : int option;
  path_slot : int option;  (** frame byte offset of a spilled path register *)
  tables : string list;  (** path/edge table globals *)
  hw_tainted : bool;  (** treat [Hwread] results as tainted *)
  fresh_slots : int * int;  (** instrumentation-owned frame bytes [lo, hi) *)
}

let none =
  {
    path_reg = None;
    path_slot = None;
    tables = [];
    hw_tainted = false;
    fresh_slots = (0, 0);
  }

let of_state (s : Pp_instrument.Instrument.state) =
  let path_reg, path_slot =
    match s.Pp_instrument.Instrument.path_home with
    | Some (Pp_instrument.Path_instr.Path_reg r) -> (Some r, None)
    | Some (Pp_instrument.Path_instr.Path_slot off) -> (None, Some off)
    | None -> (None, None)
  in
  {
    path_reg;
    path_slot;
    tables = s.Pp_instrument.Instrument.table_globals;
    hw_tainted = true;
    fresh_slots = s.Pp_instrument.Instrument.fresh_slots;
  }

let is_table p g = List.mem g p.tables
