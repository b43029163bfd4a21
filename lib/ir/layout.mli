(** Address assignment — the linker.

    Every instruction slot gets a 4-byte code address (so instrumentation
    displaces I-cache lines realistically), every global a word-aligned data
    address.  A procedure's address — the address of its first instruction —
    doubles as its identifier and as its function-pointer value, as on
    SPARC.

    The simulated address space:
    - [data_base]: globals;
    - [heap_base]: MiniC's bump allocator;
    - [prof_base]: profiling data (counter tables, accumulators, CCT heap);
    - [stack_base]: the stack, growing downward;
    - [code_base]: instructions (fetch-only; never read as data). *)

val data_base : int
val prof_base : int
val stack_base : int

(** Lowest legal stack address. *)
val stack_limit : int

(** Bytes per memory word (8). *)
val word : int

(** Bytes between a frame pointer and the frame's addressable area (the
    [Frameaddr] base): the saved-gCSP word at [fp] and the two PIC
    snapshot words at [fp+8] / [fp+16] that the CCT stubs use. *)
val linkage_bytes : int

(** Words of a calling-context record in simulated memory (ID, parent,
    three metric words, one callee slot per call site). *)
val record_words : int -> int

type t

(** @raise Invalid_argument if a symbol is missing (dangling [Iconst_sym] or
    call target are reported by {!Validate}, not here). *)
val build : Program.t -> t

val proc_addr : t -> string -> int

(** [instr_addr t ~proc ~label ~index] is the code address of the
    [index]-th instruction of the block ([index = length instrs] addresses
    the terminator). *)
val instr_addr : t -> proc:string -> label:Block.label -> index:int -> int

val global_addr : t -> string -> int

(** First free address after the globals (start of the heap guard gap). *)
val data_end : t -> int

(** Resolve a symbol: a procedure name to its code address, or a global to
    its data address.  @raise Not_found *)
val resolve : t -> string -> int
