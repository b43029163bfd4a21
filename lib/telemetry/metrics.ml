(* Buckets cover the whole 63-bit range: bucket 0 is v <= 0, bucket k >= 1
   holds 2^(k-1) <= v < 2^k, so 63 buckets suffice. *)
let nbuckets = 64

type hist = { mutable hcount : int; mutable hsum : int; buckets : int array }

type cell =
  | Ccounter of int ref
  | Cgauge of int ref
  | Chist of hist

type t = { cells : (string, cell) Hashtbl.t }

type vsnap =
  | Counter of int
  | Gauge of int
  | Histogram of { count : int; sum : int; buckets : (int * int) list }

type snapshot = (string * vsnap) list

let default = { cells = Hashtbl.create 64 }

let kind_error name =
  invalid_arg (Printf.sprintf "Metrics: %s is registered as another kind" name)

let incr t name n =
  match Hashtbl.find_opt t.cells name with
  | Some (Ccounter r) -> r := !r + n
  | Some _ -> kind_error name
  | None -> Hashtbl.replace t.cells name (Ccounter (ref n))

let set_gauge t name v =
  match Hashtbl.find_opt t.cells name with
  | Some (Cgauge r) -> r := v
  | Some _ -> kind_error name
  | None -> Hashtbl.replace t.cells name (Cgauge (ref v))

let bucket_of v =
  if v <= 0 then 0
  else begin
    let k = ref 1 in
    while v lsr !k > 0 do k := !k + 1 done;
    !k
  end

let observe t name v =
  let h =
    match Hashtbl.find_opt t.cells name with
    | Some (Chist h) -> h
    | Some _ -> kind_error name
    | None ->
        let h = { hcount = 0; hsum = 0; buckets = Array.make nbuckets 0 } in
        Hashtbl.replace t.cells name (Chist h);
        h
  in
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum + v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let snap_cell = function
  | Ccounter r -> Counter !r
  | Cgauge r -> Gauge !r
  | Chist h ->
      let buckets = ref [] in
      for b = nbuckets - 1 downto 0 do
        if h.buckets.(b) <> 0 then buckets := (b, h.buckets.(b)) :: !buckets
      done;
      Histogram { count = h.hcount; sum = h.hsum; buckets = !buckets }

let snapshot t =
  Hashtbl.fold (fun name c acc -> (name, snap_cell c) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Bucket lists are sparse assoc lists sorted by index; combine pointwise. *)
let combine_buckets op a b =
  let rec go a b =
    match (a, b) with
    | [], rest -> List.filter_map (fun (i, v) -> keep i (op 0 v)) rest
    | rest, [] -> rest
    | (i, va) :: ra, (j, vb) :: rb ->
        if i < j then (i, va) :: go ra b
        else if j < i then prepend j (op 0 vb) (go a rb)
        else prepend i (op va vb) (go ra rb)
  and keep i v = if v = 0 then None else Some (i, v)
  and prepend i v rest = match keep i v with None -> rest | Some c -> c :: rest
  in
  go a b

let diff_cell name after before =
  match (after, before) with
  | Counter a, Counter b -> if a = b then None else Some (Counter (a - b))
  | Gauge a, Gauge b -> if a = b then None else Some (Gauge a)
  | Histogram a, Histogram b ->
      if a.count = b.count && a.sum = b.sum && a.buckets = b.buckets then None
      else
        Some
          (Histogram
             {
               count = a.count - b.count;
               sum = a.sum - b.sum;
               buckets = combine_buckets ( - ) a.buckets b.buckets;
             })
  | _ -> kind_error name

let diff (after : snapshot) (before : snapshot) : snapshot =
  let rec go after before =
    match (after, before) with
    | rest, [] -> rest
    | [], _ -> []  (* a registry never shrinks *)
    | ((na, va) as ca) :: ra, (nb, vb) :: rb ->
        if na < nb then ca :: go ra before
        else if nb < na then go after rb
        else (
          match diff_cell na va vb with
          | Some v -> (na, v) :: go ra rb
          | None -> go ra rb)
  in
  go after before

let absorb t (s : snapshot) =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> incr t name n
      | Gauge g -> (
          match Hashtbl.find_opt t.cells name with
          | Some (Cgauge r) -> r := max !r g
          | Some _ -> kind_error name
          | None -> Hashtbl.replace t.cells name (Cgauge (ref g)))
      | Histogram { count; sum; buckets } -> (
          match Hashtbl.find_opt t.cells name with
          | Some (Chist h) ->
              h.hcount <- h.hcount + count;
              h.hsum <- h.hsum + sum;
              List.iter
                (fun (b, n) -> h.buckets.(b) <- h.buckets.(b) + n)
                buckets
          | Some _ -> kind_error name
          | None ->
              let h =
                { hcount = count; hsum = sum; buckets = Array.make nbuckets 0 }
              in
              List.iter (fun (b, n) -> h.buckets.(b) <- n) buckets;
              Hashtbl.replace t.cells name (Chist h)))
    s

let dump (s : snapshot) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      (match v with
      | Counter n -> Printf.bprintf buf "counter %s %d" name n
      | Gauge g -> Printf.bprintf buf "gauge %s %d" name g
      | Histogram { count; sum; buckets } ->
          Printf.bprintf buf "hist %s count=%d sum=%d" name count sum;
          List.iter (fun (b, n) -> Printf.bprintf buf " b%d=%d" b n) buckets);
      Buffer.add_char buf '\n')
    s;
  Buffer.contents buf
