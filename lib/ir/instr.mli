(** Instructions of the register-transfer IR.

    The IR plays the role SPARC machine code played for EEL/PP: a low-level
    program representation that the instrumenter edits and the virtual
    machine executes against the simulated microarchitecture.  Two register
    classes exist — integer registers and floating-point registers — indexed
    densely per procedure.  Memory is byte-addressed; loads and stores move
    8-byte words and must be word-aligned.

    Profiling pseudo-operations ({!prof_op}) stand for runtime-library calls
    the real PP tool emitted as SPARC code; the VM executes them natively
    but charges an explicit instruction/memory cost so that they perturb the
    simulated hardware counters the way real instrumentation perturbs real
    counters (see {!Pp_vm.Runtime}). *)

type ireg = int
type freg = int

(** Call-site index, dense within a procedure; the CCT keeps one callee slot
    per site. *)
type site = int

type ibinop =
  | Add
  | Sub
  | Mul
  | Div  (** traps on zero divisor *)
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr  (** arithmetic right shift *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type fbinop = Fadd | Fsub | Fmul | Fdiv

(** Where a call's result goes. *)
type ret_dest = Rint of ireg | Rfloat of freg | Rnone

(** Profiling pseudo-operations.  [table] identifiers index the per-procedure
    path-counter tables registered with the VM runtime. *)
type prof_op =
  | Cct_enter of { proc_addr : int; nsites : int }
      (** procedure-entry CCT logic: look up or create this procedure's call
          record under the caller-supplied callee slot (gCSP), push the local
          call-record pointer (lCRP), save gCSP to the (simulated) stack *)
  | Cct_exit  (** restore gCSP from the stack, pop lCRP *)
  | Cct_call of { site : site; indirect : bool }
      (** set gCSP to lCRP's callee slot for [site], just before a call *)
  | Cct_metric_enter  (** record PIC values at entry for context+HW *)
  | Cct_metric_exit
      (** accumulate PIC deltas into the current call record *)
  | Cct_metric_backedge
      (** mid-procedure accumulate, placed on loop backedges to bound the
          measured interval (paper §4.3) *)
  | Path_commit_hash of { table : int; path_reg : ireg }
      (** [count\[r\]++] through a hash table, used when a procedure has too
          many potential paths for an array *)
  | Path_commit_hash_hw of { table : int; path_reg : ireg }
      (** hash-table variant that also accumulates the two PIC deltas *)
  | Path_commit_cct of { table : int; path_reg : ireg }
      (** [count\[r\]++] in the *current call record*'s table: the
          flow×context combination *)

type t =
  | Iconst of ireg * int
  | Iconst_sym of ireg * string
      (** address of a global or procedure; resolved at layout time.
          A procedure's address doubles as its identifier (as in PP) and as
          a function-pointer value for indirect calls. *)
  | Fconst of freg * float
  | Imov of ireg * ireg
  | Fmov of freg * freg
  | Ibinop of ibinop * ireg * ireg * ireg
  | Ibinop_imm of ibinop * ireg * ireg * int
  | Icmp of cmp * ireg * ireg * ireg  (** rd = rs1 cmp rs2 ? 1 : 0 *)
  | Icmp_imm of cmp * ireg * ireg * int
  | Fbinop of fbinop * freg * freg * freg
  | Fcmp of cmp * ireg * freg * freg
  | Itof of freg * ireg
  | Ftoi of ireg * freg  (** truncation *)
  | Load of ireg * ireg * int  (** rd <- mem\[rs + off\] *)
  | Store of ireg * ireg * int  (** mem\[rbase + off\] <- rs *)
  | Fload of freg * ireg * int
  | Fstore of freg * ireg * int
  | Call of {
      callee : string;
      args : ireg list;
      fargs : freg list;
      ret : ret_dest;
      site : site;
    }
  | Callind of {
      target : ireg;  (** holds a procedure address *)
      args : ireg list;
      fargs : freg list;
      ret : ret_dest;
      site : site;
    }
  | Hwread of ireg * int  (** rd <- PIC k (k = 0 or 1), 32-bit value *)
  | Hwzero  (** zero both PICs; PP always follows this with a read to force
                write completion on the out-of-order UltraSPARC *)
  | Hwwrite of ireg * int
      (** PIC k <- rs (low 32 bits): restore a saved counter value, the
          callee-side save/restore of §3.1 *)
  | Frameaddr of ireg * int
      (** rd <- frame pointer + byte offset: the address of a stack-allocated
          local array slot *)
  | Print_int of ireg
      (** append the value to the program's output stream (a test oracle:
          instrumented and uninstrumented runs must print identically) *)
  | Print_float of freg
  | Prof of prof_op

(** Integer registers written / read by an instruction (excluding callee
    effects). *)
val idefs : t -> ireg list

val iuses : t -> ireg list
val fdefs : t -> freg list
val fuses : t -> freg list

val is_call : t -> bool

(** Code-size footprint in instruction slots.  Ordinary instructions occupy
    one slot; profiling pseudo-ops occupy the size of the runtime stub they
    stand for, so that they displace I-cache lines realistically. *)
val slots : t -> int

(** {2 Probe-stub footprints}

    The size, in instruction slots, of the runtime stub each profiling
    pseudo-op stands for, stated once for the runtime that charges it
    ([Pp_vm.Runtime]) and the analysis that bounds it
    ([Pp_analysis.Predict]).  Every stub but [Cct_enter] executes its
    whole footprint once per call.  [Cct_enter] executes
    [cct_enter_base] instructions, plus [cct_enter_per_ancestor] for each
    ancestor its slot-miss walk visits. *)

val cct_enter_slots : int
val cct_enter_base : int
val cct_enter_per_ancestor : int
val cct_exit_slots : int
val cct_call_slots : int
val metric_enter_slots : int
val metric_exit_slots : int
val metric_backedge_slots : int
val commit_hash_slots : int
val commit_hash_hw_slots : int
val commit_cct_slots : int

val pp_ibinop : Format.formatter -> ibinop -> unit
val pp_cmp : Format.formatter -> cmp -> unit
val pp_fbinop : Format.formatter -> fbinop -> unit
val pp : Format.formatter -> t -> unit
