(* Every export has a production caller.

   Reads the typed trees ([.cmti] and [.cmt]) that [dune build @check]
   leaves under [_build/default] and prints [file:line name] for each
   value exported from [lib/] that no production unit calls.  Exits 1
   if there is any.

   - An export is a [val] of a [lib/] interface, or a top-level [let]
     of a [lib/] implementation that has no interface.
   - It is called when another unit has a [Texp_ident] whose value
     description is located at that export.  References inside the
     unit's own implementation resolve to the implementation's
     definition, so they never count.
   - A unit coerced to a signature (a functor argument,
     [module _ : S = M], a packed module) calls every value that
     signature requires.  A plain alias such as [module P = M] calls
     nothing.
   - Only production units call: a unit whose source is under [test/]
     calls nothing.
   - An export that only tests call stays if its [val] carries
     [[@@test_only "reason"]]: a checker or reference implementation
     that tests compare production results against, or a paper
     mechanism no production path reaches yet.  The annotation is
     itself checked: it needs a reason, and it is wrong on an export
     that a production unit calls. *)

open Typedtree

let root = "_build/default"

let rec files dir acc =
  Array.fold_left
    (fun acc name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then files p acc
      else if Filename.check_suffix p ".cmt" || Filename.check_suffix p ".cmti"
      then p :: acc
      else acc)
    acc (Sys.readdir dir)

let under dir = function
  | Some src -> String.starts_with ~prefix:dir src
  | None -> false

(* How an export's [val] is annotated: not at all, [[@@test_only
   "reason"]], or [[@@test_only] ] with no reason string. *)
type test_only = No | Reason | Bare

(* An export, keyed by where it is declared: its unit, its name (prefixed
   by any submodule), its line and its annotation. *)
type export = {
  unit : string;
  name : string;
  file : string;
  line : int;
  test_only : test_only;
}

let key (p : Lexing.position) = (p.pos_fname, p.pos_cnum)
let exports : (string * int, export) Hashtbl.t = Hashtbl.create 512
let called : (string * int, unit) Hashtbl.t = Hashtbl.create 4096

(* Module types by canonical path, to expand a coercion's target. *)
let modtypes : (string, Types.module_type) Hashtbl.t = Hashtbl.create 64
let units : (string, unit) Hashtbl.t = Hashtbl.create 256

let add ?(test_only = No) unit prefix name (loc : Location.t) =
  let p = loc.loc_start in
  Hashtbl.replace exports (key p)
    { unit; name = prefix ^ name; file = p.pos_fname; line = p.pos_lnum; test_only }

let test_only (attrs : Parsetree.attributes) =
  match List.find_opt (fun (a : Parsetree.attribute) -> a.attr_name.txt = "test_only") attrs with
  | None -> No
  | Some a -> (
      match a.attr_payload with
      | PStr
          [ { pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (r, _, _)); _ }, _);
              _ } ]
        when String.trim r <> "" ->
          Reason
      | _ -> Bare)

let add_modtype unit prefix name = function
  | Some mty -> Hashtbl.replace modtypes (unit ^ "." ^ prefix ^ name) mty.mty_type
  | None -> ()

let rec of_signature unit prefix (s : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          add ~test_only:(test_only vd.val_attributes) unit prefix vd.val_name.txt
            vd.val_val.val_loc
      | Tsig_module
          { md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          of_signature unit (prefix ^ m ^ ".") s
      | Tsig_modtype { mtd_name; mtd_type; _ } ->
          add_modtype unit prefix mtd_name.txt mtd_type
      | _ -> ())
    s.sig_items

let rec of_structure ~exported unit prefix (s : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) when exported ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (_, name) -> add unit prefix name.txt name.loc
              | _ -> ())
            vbs
      | Tstr_module
          { mb_name = { txt = Some m; _ };
            mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
          of_structure ~exported unit (prefix ^ m ^ ".") s
      | Tstr_modtype { mtd_name; mtd_type; _ } ->
          add_modtype unit prefix mtd_name.txt mtd_type
      | _ -> ())
    s.str_items

(* [Pp_lib.M] and [Pp_lib__M] both name the unit [Pp_lib__M]. *)
let rec canon unit (p : Path.t) =
  match p with
  | Pident id when Ident.global id -> Ident.name id
  | Pident id -> unit ^ "." ^ Ident.name id
  | Pdot (Pident lib, m) when Ident.global lib ->
      let lib = Ident.name lib in
      let sep = if String.ends_with ~suffix:"__" lib then "" else "__" in
      if Hashtbl.mem units (lib ^ sep ^ m) then lib ^ sep ^ m else lib ^ "." ^ m
  | Pdot (p, m) -> canon unit p ^ "." ^ m
  | Papply _ | Pextra_ty _ -> Path.name p

let rec values unit (mty : Types.module_type) =
  match mty with
  | Mty_signature s ->
      List.filter_map
        (function Types.Sig_value (id, _, _) -> Some (Ident.name id) | _ -> None)
        s
  | Mty_ident p | Mty_alias p -> (
      match Hashtbl.find_opt modtypes (canon unit p) with
      | Some m -> values unit m
      | None -> [])
  | Mty_functor _ -> []

(* [me] is coerced to [target]: it calls what [target] requires of it. *)
let coerce by_name unit (me : module_expr) target =
  match me.mod_desc with
  | Tmod_ident (p, _) ->
      let u = canon unit p in
      List.iter
        (fun v ->
          Option.iter
            (fun k -> Hashtbl.replace called k ())
            (Hashtbl.find_opt by_name (u, v)))
        (values unit target)
  | _ -> ()

let scan by_name unit annots =
  let open Tast_iterator in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> Hashtbl.replace called (key vd.val_loc.loc_start) ()
    | _ -> ());
    default_iterator.expr it e
  in
  let module_expr it (me : module_expr) =
    (match me.mod_desc with
    | Tmod_constraint (inner, target, _, _) -> coerce by_name unit inner target
    | Tmod_apply (f, arg, _) -> (
        match f.mod_type with
        | Mty_functor (Named (_, param), _) -> coerce by_name unit arg param
        | _ -> ())
    | _ -> ());
    default_iterator.module_expr it me
  in
  let it = { default_iterator with expr; module_expr } in
  match annots with
  | Cmt_format.Implementation s -> it.structure it s
  | Interface s -> it.signature it s
  | _ -> ()

let () =
  if not (Sys.file_exists root) then (
    prerr_endline "exports: no _build/default; run `dune build @check` first";
    exit 2);
  let cmts = List.map Cmt_format.read_cmt (List.sort compare (files root [])) in
  let with_mli = Hashtbl.create 128 in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      Hashtbl.replace units c.cmt_modname ();
      match c.cmt_annots with
      | Interface _ -> Hashtbl.replace with_mli c.cmt_modname ()
      | _ -> ())
    cmts;
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      let lib = under "lib/" c.cmt_sourcefile in
      match c.cmt_annots with
      | Interface s when lib -> of_signature c.cmt_modname "" s
      | Implementation s ->
          let exported = lib && not (Hashtbl.mem with_mli c.cmt_modname) in
          of_structure ~exported c.cmt_modname "" s
      | _ -> ())
    cmts;
  let by_name = Hashtbl.create 512 in
  Hashtbl.iter (fun k e -> Hashtbl.replace by_name (e.unit, e.name) k) exports;
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      if not (under "test/" c.cmt_sourcefile) then
        scan by_name c.cmt_modname c.cmt_annots)
    cmts;
  let faults =
    Hashtbl.fold
      (fun k e acc ->
        match (Hashtbl.mem called k, e.test_only) with
        | false, No -> (e, "") :: acc
        | _, Bare -> (e, ": [@@test_only] needs a reason string") :: acc
        | true, Reason -> (e, ": [@@test_only] but a production unit calls it") :: acc
        | true, No | false, Reason -> acc)
      exports []
    |> List.sort (fun (a, _) (b, _) -> compare (a.file, a.line) (b.file, b.line))
  in
  List.iter (fun (e, why) -> Printf.printf "%s:%d %s%s\n" e.file e.line e.name why) faults;
  if faults <> [] then exit 1
