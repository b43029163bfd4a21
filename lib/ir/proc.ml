type return_kind = Returns_int | Returns_float | Returns_void

type t = {
  name : string;
  iparams : int;
  fparams : int;
  returns : return_kind;
  blocks : Block.t array;
  entry : Block.label;
  niregs : int;
  nfregs : int;
  nsites : int;
  frame_words : int;
}

let iter_instrs f p =
  Array.iter
    (fun (b : Block.t) -> List.iter (fun i -> f b.label i) b.instrs)
    p.blocks

let site_of_instr = function
  | Instr.Call { site; _ } | Instr.Callind { site; _ } -> Some site
  | _ -> None

let derive_counts ~name ~iparams ~fparams ~blocks =
  let niregs = ref iparams and nfregs = ref fparams in
  let sites = ref [] in
  Array.iter
    (fun (b : Block.t) ->
      let touch kind count r =
        if r < 0 || r >= Sys.max_array_length then
          invalid_arg
            (Printf.sprintf "Proc.make(%s): L%d names register %s%d" name
               b.label kind r);
        if r + 1 > !count then count := r + 1
      in
      let touch_i = touch "r" niregs and touch_f = touch "f" nfregs in
      List.iter
        (fun i ->
          List.iter touch_i (Instr.idefs i);
          List.iter touch_i (Instr.iuses i);
          List.iter touch_f (Instr.fdefs i);
          List.iter touch_f (Instr.fuses i);
          match site_of_instr i with
          | Some s -> sites := s :: !sites
          | None -> ())
        b.instrs;
      match b.term with
      | Block.Br (r, _, _) -> touch_i r
      | Block.Ret (Block.Ret_int r) -> touch_i r
      | Block.Ret (Block.Ret_float r) -> touch_f r
      | Block.Jmp _ | Block.Ret Block.Ret_void -> ())
    blocks;
  let sites = List.sort compare !sites in
  let nsites = List.length sites in
  List.iteri
    (fun i s ->
      if i <> s then
        invalid_arg
          (Printf.sprintf
             "Proc.make(%s): call sites must be a permutation of 0..%d \
              (saw site %d at rank %d)"
             name (nsites - 1) s i))
    sites;
  (!niregs, !nfregs, nsites)

let make ~frame_words ~name ~iparams ~fparams ~returns ~blocks ~entry =
  let blocks = Array.copy blocks in
  Array.iteri
    (fun i (b : Block.t) ->
      if b.label <> i then
        invalid_arg
          (Printf.sprintf "Proc.make(%s): block %d has label %d" name i
             b.label);
      List.iter
        (fun l ->
          if l < 0 || l >= Array.length blocks then
            invalid_arg
              (Printf.sprintf "Proc.make(%s): L%d targets missing L%d" name
                 b.label l))
        (Block.successors b))
    blocks;
  if entry < 0 || entry >= Array.length blocks then
    invalid_arg (Printf.sprintf "Proc.make(%s): bad entry label" name);
  let niregs, nfregs, nsites =
    derive_counts ~name ~iparams ~fparams ~blocks
  in
  if frame_words < 0 then
    invalid_arg (Printf.sprintf "Proc.make(%s): negative frame size" name);
  {
    name;
    iparams;
    fparams;
    returns;
    blocks;
    entry;
    niregs;
    nfregs;
    nsites;
    frame_words;
  }

let with_blocks ?entry ?frame_words p blocks =
  let entry = Option.value ~default:p.entry entry in
  let frame_words = Option.value ~default:p.frame_words frame_words in
  make ~frame_words ~name:p.name ~iparams:p.iparams ~fparams:p.fparams
    ~returns:p.returns ~blocks ~entry

let block p l =
  if l < 0 || l >= Array.length p.blocks then
    invalid_arg (Printf.sprintf "Proc.block(%s): no block L%d" p.name l);
  p.blocks.(l)

let num_blocks p = Array.length p.blocks

let size_slots p =
  Array.fold_left (fun acc b -> acc + Block.slots b) 0 p.blocks

let pp ppf p =
  Format.fprintf ppf "@[<v>proc %s (iparams=%d fparams=%d) entry=L%d" p.name
    p.iparams p.fparams p.entry;
  Array.iter (fun b -> Format.fprintf ppf "@,%a" Block.pp b) p.blocks;
  Format.fprintf ppf "@]"
