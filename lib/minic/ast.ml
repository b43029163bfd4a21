type pos = { line : int; col : int }

type ty = Tint | Tfloat | Tvoid | Tfunptr

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Land
  | Lor

type expr = { edesc : expr_desc; epos : pos }

and expr_desc =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Addr_of of string
  | Cast of ty * expr

type lvalue = Lvar of string | Lindex of string * expr list

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of ty * string * int list * expr option
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt option * expr option * stmt option * stmt list
  | Break
  | Continue
  | Return of expr option
  | Expr of expr
  | Print of expr

type param = { pty : ty; pname : string }

type ginit = Gscalar of expr | Glist of expr list

type global_decl = {
  gty : ty;
  gname : string;
  gdims : int list;
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

let ty_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tvoid -> "void"
  | Tfunptr -> "funptr"
