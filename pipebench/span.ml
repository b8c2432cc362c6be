(* In-memory span recorder for the traced run.  Each wrapped call into a
   layer records its name ("layer.function"), start, end, parent span,
   run id, the work units it did and the minor words it allocated.  Spans
   stay in memory until [write] puts them out as JSON lines at the end of
   the run.  When recording is off, [call] only runs the function. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root *)
  run : int;
  name : string;
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable words : float;  (* minor words allocated between start and end *)
  mutable units : int;
}

let recording = ref false
let run_id = ref 0
let next_id = ref 0
let recorded : t list ref = ref []
let open_spans : int list ref = ref []

let now = Dr_util.Timer.now

(* [call name f] runs [f ()] inside a span; [units] turns the result into
   the span's work count.  An exception closes the span and propagates. *)
let call ?(units = fun _ -> 0) name f =
  if not !recording then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let id = !next_id in
    incr next_id;
    let sp =
      { id; parent; run = !run_id; name; t0 = now (); t1 = 0.;
        w0 = Gc.minor_words (); words = 0.; units = 0 }
    in
    open_spans := id :: !open_spans;
    let close () =
      sp.words <- Gc.minor_words () -. sp.w0;
      sp.t1 <- now ();
      open_spans := List.tl !open_spans;
      recorded := sp :: !recorded
    in
    match f () with
    | r ->
      close ();
      sp.units <- units r;
      r
    | exception e ->
      close ();
      raise e
  end

(* Per-name totals of self time (duration minus the children's
   durations), self minor words, work units and calls. *)
type totals = {
  mutable calls : int;
  mutable self_s : float;
  mutable self_words : float;
  mutable work : int;
}

let totals () : (string, totals) Hashtbl.t =
  let child_s = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then begin
        add child_s sp.parent (sp.t1 -. sp.t0);
        add child_w sp.parent sp.words
      end)
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let tot =
        match Hashtbl.find_opt by_name sp.name with
        | Some t -> t
        | None ->
          let t = { calls = 0; self_s = 0.; self_words = 0.; work = 0 } in
          Hashtbl.add by_name sp.name t;
          t
      in
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl sp.id) in
      tot.calls <- tot.calls + 1;
      tot.self_s <- tot.self_s +. (sp.t1 -. sp.t0 -. get child_s);
      tot.self_words <- tot.self_words +. (sp.words -. get child_w);
      tot.work <- tot.work + sp.units)
    !recorded;
  by_name

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let base = List.fold_left (fun acc sp -> Float.min acc sp.t0) infinity !recorded in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"run\":%d,\"name\":%S,\
         \"start_s\":%.9f,\"end_s\":%.9f,\"units\":%d,\"minor_words\":%.0f}\n"
        sp.id sp.parent sp.run sp.name (sp.t0 -. base) (sp.t1 -. base) sp.units
        sp.words)
    (List.rev !recorded)
