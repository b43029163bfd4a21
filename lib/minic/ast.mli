(** Abstract syntax of MiniC, the small C-like language the workloads are
    written in.

    MiniC exists to stand in for the C and Fortran sources of SPEC95: it is
    just rich enough to express the paper's benchmark behaviours — integer
    and floating-point arithmetic, global (1-D/2-D) and local (1-D) arrays,
    loops, recursion, and function pointers for indirect calls. *)

type pos = { line : int; col : int }

type ty =
  | Tint
  | Tfloat
  | Tvoid  (** return type only *)
  | Tfunptr  (** pointer to a function of type (int, ..., int) -> int *)

type unop =
  | Neg  (** arithmetic negation, int or float *)
  | Not  (** logical negation, int *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem  (** int only *)
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Land  (** short-circuit *)
  | Lor  (** short-circuit *)

type expr = { edesc : expr_desc; epos : pos }

and expr_desc =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr list  (** a\[i\] or a\[i\]\[j\] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
      (** direct call, or indirect when the name is a funptr variable *)
  | Addr_of of string  (** [&f]: the address of a function *)
  | Cast of ty * expr  (** [int(e)] or [float(e)] *)

type lvalue =
  | Lvar of string
  | Lindex of string * expr list

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of ty * string * int list * expr option
      (** [Decl (ty, name, dims, init)]: scalar when [dims = []];
          local arrays are 1-D and uninitialised *)
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt option * expr option * stmt option * stmt list
      (** init and step are restricted to assignments by the parser *)
  | Break
  | Continue
  | Return of expr option
  | Expr of expr  (** a call evaluated for effect *)
  | Print of expr  (** append to the program's output stream *)

type param = { pty : ty; pname : string }

(** Global initialiser. *)
type ginit =
  | Gscalar of expr  (** literal (possibly negated) *)
  | Glist of expr list

type global_decl = {
  gty : ty;
  gname : string;
  gdims : int list;  (** \[\] scalar, \[n\] 1-D, \[n; m\] 2-D *)
  ginit : ginit option;
  gpos : pos;
}

type func = {
  fname : string;
  params : param list;
  ret : ty;
  body : stmt list;
  fpos : pos;
}

type program = { globals : global_decl list; funcs : func list }

val ty_name : ty -> string
