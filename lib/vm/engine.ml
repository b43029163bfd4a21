type kind = Interpreted | Compiled

let default = Compiled
let kinds = [ Interpreted; Compiled ]
let kind_name = function Interpreted -> "interp" | Compiled -> "compiled"

let kind_of_string = function
  | "interp" -> Some Interpreted
  | "compiled" -> Some Compiled
  | _ -> None

type t = {
  vm : Interp.t;
  kind : kind;
  mutable compiled : Compile.t option;  (* translated on first run *)
}

let of_vm ?(kind = default) vm = { vm; kind; compiled = None }

let create ?(kind = default) ?config ?max_instructions prog =
  of_vm ~kind (Interp.create ?config ?max_instructions prog)

let vm t = t.vm
let kind t = t.kind

let compiled t =
  match t.compiled with
  | Some c -> c
  | None ->
      let c = Compile.create t.vm in
      t.compiled <- Some c;
      c

let run t =
  match t.kind with
  | Interpreted -> Interp.run t.vm
  | Compiled -> Compile.run (compiled t)
