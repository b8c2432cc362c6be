(* Criterion pools and the expected-slices file.

   Each slicing workload draws its criteria from a fixed pool: [size]
   data loads spread evenly over the whole global trace (the middle load
   of each of [size] equal strata of the trace's loads).  The pool
   depends only on the recorded trace, so one expected file covers every
   seed.  [expected.tsv] holds, for each pool entry, the criterion
   position, the slice size and a digest of the slice positions, as the
   indexed traversal computes them; [make] writes it and refuses to when
   the no-skip scan traversal disagrees with the indexed one. *)

module S = Dr_slicing

let file = "pipebench/expected.tsv"

let pool (gt : S.Global_trace.t) ~size : int array =
  let loads = ref [] in
  for p = S.Global_trace.length gt - 1 downto 0 do
    if S.Trace.is_load (S.Global_trace.record gt p) then loads := p :: !loads
  done;
  let loads = Array.of_list !loads in
  let n = Array.length loads in
  if n < size then
    failwith (Printf.sprintf "trace has %d data loads, pool needs %d" n size);
  Array.init size (fun i -> loads.(((2 * i) + 1) * n / (2 * size)))

let digest (sl : S.Slicer.t) : string =
  let b = Buffer.create (8 * Array.length sl.S.Slicer.positions) in
  Array.iter
    (fun p -> Buffer.add_string b (string_of_int p); Buffer.add_char b ',')
    sl.S.Slicer.positions;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

type entry = { e_pos : int; e_size : int; e_digest : string }

(* (program label, pool index) -> entry *)
let load () : (string * int, entry) Hashtbl.t =
  let tbl = Hashtbl.create 4096 in
  let ic = open_in file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char '\t' line with
         | [ label; idx; pos; size; dg ] ->
           Hashtbl.replace tbl (label, int_of_string idx)
             { e_pos = int_of_string pos; e_size = int_of_string size;
               e_digest = dg }
         | _ -> failwith (Printf.sprintf "%s: malformed line %S" file line)
     done
   with End_of_file -> ());
  tbl

(* Pool indices ordered by expected slice size, smallest first (ties in
   pool order).  Strata over this order give every iteration the same
   mix of narrow and broad cones, whatever the seed. *)
let by_size tbl ~label ~size : int array =
  let key i =
    match Hashtbl.find_opt tbl (label, i) with Some e -> e.e_size | None -> max_int
  in
  let idx = Array.init size Fun.id in
  Array.stable_sort (fun a b -> compare (key a) (key b)) idx;
  idx

let check tbl ~label ~idx ~pos (sl : S.Slicer.t) : (unit, string) result =
  match Hashtbl.find_opt tbl (label, idx) with
  | None -> Error (Printf.sprintf "%s pool entry %d missing from %s" label idx file)
  | Some e ->
    let size = S.Slicer.size sl and dg = digest sl in
    if e.e_pos <> pos then
      Error
        (Printf.sprintf "%s pool entry %d is at position %d, expected %d" label
           idx pos e.e_pos)
    else if e.e_size <> size || e.e_digest <> dg then
      Error
        (Printf.sprintf "%s criterion %d: slice size %d digest %s, expected %d %s"
           label pos size dg e.e_size e.e_digest)
    else Ok ()

(* One block of the expected file: every pool entry of one program,
   sliced by the indexed traversal and cross-checked against the no-skip
   scan. *)
let lines ~label ~lp ~pairs gt (pool : int array) : string list =
  Array.to_list
    (Array.mapi
       (fun idx pos ->
         let crit = { S.Slicer.crit_pos = pos; crit_locs = None } in
         let fast = S.Slicer.compute ~lp ~pairs gt crit in
         let scan = S.Slicer.compute ~driver:`Scan ~lp ~pairs gt crit in
         if fast.S.Slicer.positions <> scan.S.Slicer.positions then
           failwith
             (Printf.sprintf "%s criterion %d: indexed and scan slices differ"
                label pos);
         Printf.sprintf "%s\t%d\t%d\t%d\t%s" label idx pos (S.Slicer.size fast)
           (digest fast))
       pool)

let write (blocks : string list list) =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc
    "# label\tpool_index\tcriterion_position\tslice_size\tposition_digest\n\
     # Written by `pipebench/run.sh --make-expected`; every entry was\n\
     # cross-checked against the no-skip scan traversal.\n";
  List.iter (List.iter (fun l -> output_string oc (l ^ "\n"))) blocks
