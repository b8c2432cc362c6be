(* The repository benchmark: one workload of the cyclic-debugging loop
   per process, timed from outside by wrapping the calls into each layer
   (see NOTES.md for the workloads, the metrics and the layer map).

   main.exe --workload NAME --seed N --seconds S --trace 0|1
   main.exe --make-expected

   With --trace 0 the run reports the end-to-end metrics; with --trace 1
   every iteration runs twice on the same draws, untraced then traced,
   and the run reports the per-layer metrics of the traced copies plus
   the tracing overhead.  The last line of standard output is the JSON
   result. *)

module P = Dr_pinplay
module S = Dr_slicing
module M = Dr_machine
module Session = Drdebug.Session

let now = Span.now
let call = Span.call

(* ---- operations ---- *)

let attempted = ref 0
let failed = ref 0
let unexpected : string list ref = ref []
let known_failures : (string, int) Hashtbl.t = Hashtbl.create 8

(* One user-visible operation, traced as an "op." span around its layer
   calls.  An exception, an [Error] or a failed output check counts as a
   failed operation.  [known] marks operations that hit the documented
   breakpoint defects: their failures count in [failed] like any other,
   but do not make the run incorrect. *)
let op ?(known = false) name f =
  incr attempted;
  let fail msg =
    incr failed;
    let msg = name ^ ": " ^ msg in
    if known then
      Hashtbl.replace known_failures msg
        (1 + Option.value ~default:0 (Hashtbl.find_opt known_failures msg))
    else unexpected := msg :: !unexpected;
    None
  in
  match Span.call ("op." ^ name) f with
  | Ok x -> Some x
  | Error msg -> fail msg
  | exception e -> fail (Printexc.to_string e)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- samples (end-to-end) and counters (per layer) ---- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* library-reported work counts, kept only for traced iterations *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !Span.recording then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let r = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float r in
    if i >= Array.length a - 1 then a.(i)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* ---- programs ---- *)

let skip = 500

(* the schedule Logger.log records by default, reused for native runs *)
let native_policy = M.Driver.Seeded { seed = 1; max_quantum = 8 }

type program = {
  label : string;
  prog : Dr_isa.Program.t;
  length : int;  (* main-thread region instructions after [skip] *)
}

let code_len p = Array.length p.Dr_isa.Program.code

let registry_program ~name ~length =
  let e = Option.get (Dr_workloads.Registry.find name) in
  let iters =
    call "lang.calibrate" (fun () ->
        Dr_workloads.Registry.iters_for e ~main_instrs:(skip + length) ())
  in
  let prog =
    call "lang.compile" ~units:code_len (fun () ->
        e.Dr_workloads.Registry.compile ~threads:4 ~iters)
  in
  { label = Printf.sprintf "%s-%dk" name (length / 1000); prog; length }

(* A single-threaded loop: the smallest program that shows the
   breakpoint defects. *)
let loop_source =
  "fn main() {\n\
  \  int s = 0;\n\
  \  for (int i = 0; i < 20; i = i + 1) {\n\
  \    s = s + i;\n\
  \  }\n\
  \  print(s);\n\
   }\n"

let loop_line = 4  (* s = s + i; *)

let loop_program () =
  let prog =
    call "lang.compile" ~units:code_len (fun () ->
        Dr_lang.Codegen.compile ~name:"loop20" loop_source)
  in
  { label = "loop20"; prog; length = 0 }

(* ---- layer calls shared by the workloads ---- *)

let native p =
  ignore
  @@ op "run" (fun () ->
         let m = M.Machine.create p.prog in
         let reason =
           call "machine.run"
             ~units:(fun _ -> M.Machine.total_icount m)
             (fun () -> M.Driver.run m native_policy)
         in
         match reason with
         | M.Driver.Terminated (M.Machine.Exited 0) -> Ok ()
         | r -> Error (Format.asprintf "native run: %a" M.Driver.pp_stop_reason r))

let record p =
  op "record" (fun () ->
      let r, dt =
        timed (fun () ->
            call "logger.log"
              ~units:(function
                | Ok (_, st) -> st.P.Logger.region_instructions | Error _ -> 0)
              (fun () ->
                P.Logger.log p.prog
                  (P.Logger.Skip_length { skip; length = p.length })))
      in
      match r with
      | Error e -> Error (Format.asprintf "%a" P.Logger.pp_error e)
      | Ok (pb, st) -> Ok (pb, st.P.Logger.region_instructions, dt))

(* Encode, decode and encode again: the decoded pinball must give the
   same bytes.  The decoded copy is what the workload goes on with. *)
let roundtrip pb =
  op "pinball_roundtrip" (fun () ->
      let encode pb =
        call "pinball.to_bytes" ~units:String.length (fun () ->
            P.Pinball.to_bytes pb)
      in
      let bytes = encode pb in
      let pb' =
        call "pinball.of_bytes"
          ~units:(fun _ -> String.length bytes)
          (fun () -> P.Pinball.of_bytes bytes)
      in
      if encode pb' <> bytes then
        Error "re-encoding the decoded pinball changed its bytes"
      else Ok (pb', String.length bytes))

let snapshot_total (pb : P.Pinball.t) = pb.P.Pinball.snapshot.M.Snapshot.total_icount

(* Replay the whole region; the step count must equal the logger's. *)
let replay p pb ~steps =
  op "replay" (fun () ->
      let (m, _), dt =
        timed (fun () ->
            call "replayer.replay"
              ~units:(fun (m, _) -> M.Machine.total_icount m - snapshot_total pb)
              (fun () -> P.Replayer.replay p.prog pb))
      in
      let n = M.Machine.total_icount m - snapshot_total pb in
      if n <> steps then
        Error (Printf.sprintf "replayed %d steps, the logger recorded %d" n steps)
      else Ok dt)

(* Collect and merge; collection must give one record per recorded
   step. *)
let analyse p pb ~steps =
  op "analyse" (fun () ->
      let c, t_collect =
        timed (fun () ->
            call "collector.collect"
              ~units:(fun c -> S.Segment_store.length c.S.Collector.records)
              (fun () -> S.Collector.collect p.prog pb))
      in
      let n = S.Segment_store.length c.S.Collector.records in
      let gt, t_construct =
        timed (fun () ->
            call "global_trace.construct" ~units:S.Global_trace.length (fun () ->
                S.Global_trace.construct c))
      in
      if n <> steps then
        Error (Printf.sprintf "collected %d records from %d steps" n steps)
      else Ok (c, gt, t_collect +. t_construct))

let prepare gt =
  timed (fun () ->
      call "lp.prepare"
        ~units:(fun _ -> S.Global_trace.length gt)
        (fun () -> S.Lp.prepare gt))

let crit pos = { S.Slicer.crit_pos = pos; crit_locs = None }

(* a slicer span's work is the records it visited; the slice sizes are
   counted beside it for the useful-work ratio *)
let slice_call name f =
  call name
    ~units:(fun sl ->
      count (name ^ ".slice_size") (float_of_int (S.Slicer.size sl));
      sl.S.Slicer.stats.S.Slicer.visited)
    f

let indexed_slice ~lp ~pairs gt pos =
  slice_call "slicer.compute" (fun () -> S.Slicer.compute ~lp ~pairs gt (crit pos))

(* Exclusion regions and relogging make the slice pinball; its replay
   must reach the end with one step per step event it holds. *)
let slice_pinball p pb ~steps (c : S.Collector.result) sl =
  match
    op "slice_pinball" (fun () ->
        let xs, xst =
          call "exclusion.build"
            ~units:(fun (_, st) -> st.Dr_exeslice.Exclusion.total_records)
            (fun () -> Dr_exeslice.Exclusion.build ~slice:sl ~collector:c)
        in
        count "exclusion.regions" (float_of_int xst.Dr_exeslice.Exclusion.regions);
        Ok
          (call "relogger.relog" ~units:(fun _ -> steps) (fun () ->
               P.Relogger.relog p.prog pb ~exclusions:xs)))
  with
  | None -> ()
  | Some spb ->
    ignore
    @@ op "slice_replay" (fun () ->
           let n = ref 0 in
           let r =
             call "slice_replay.run" ~units:(fun _ -> !n) (fun () ->
                 Dr_exeslice.Slice_replay.run
                   ~on_step:(fun ~tid:_ ~pc:_ -> incr n)
                   (Dr_exeslice.Slice_replay.create p.prog spb))
           in
           let want = P.Pinball.step_count spb in
           count "slice_replay.region_steps" (float_of_int steps);
           match r with
           | (Dr_exeslice.Slice_replay.End_of_slice | Finished _) when !n = want ->
             Ok ()
           | End_of_slice | Finished _ ->
             Error (Printf.sprintf "slice replay ran %d of %d steps" !n want)
           | Stepped _ | Injected _ -> Error "slice replay stopped early")

(* ---- shared steps of every workload ---- *)

(* [pick d i lo len]: the i-th draw mapped into [lo, lo + len) *)
let pick (d : int array) i lo len = lo + (d.(i) mod max 1 len)

let replays = 4

(* Run natively, record, round-trip the pinball and replay the region
   [replays] times; [k] continues with the decoded pinball, the step
   count and the recording time. *)
let recorded p k =
  native p;
  match record p with
  | None -> ()
  | Some (pb, steps, t_rec) -> (
    sample "record_steps_per_s" (float_of_int steps /. t_rec);
    match roundtrip pb with
    | None -> ()
    | Some (pb, bytes) ->
      sample "pinball_bytes_per_kstep"
        (1000. *. float_of_int bytes /. float_of_int steps);
      for _ = 1 to replays do
        match replay p pb ~steps with
        | Some dt -> sample "replay_steps_per_s" (float_of_int steps /. dt)
        | None -> ()
      done;
      k pb steps t_rec)

(* The first query of a session is seed-independent, as a developer's
   slice at the failure point would be: the latest pool criterion. *)
let first_query_s times =
  if times <> [] then
    sample "time_to_first_query_s"
      (List.fold_left ( +. ) 0. times /. float_of_int (List.length times))

(* ---- slice-session ---- *)

let ss_pool = 1024
let ss_queries = 64
let ss_pinballs = 4
let ss_draws = ss_queries + ss_pinballs

let slice_session expected programs d =
  let first = ref [] in
  List.iteri
    (fun k p ->
      let d = Array.sub d (k * ss_draws) ss_draws in
      recorded p @@ fun pb steps t_rec ->
      match analyse p pb ~steps with
      | None -> ()
      | Some (c, gt, t_an) ->
        let lp, t_lp = prepare gt in
        let pool = Expected.pool gt ~size:ss_pool in
        let query idx =
          let pos = pool.(idx) in
          op "slice" (fun () ->
              let sl, dt =
                timed (fun () -> indexed_slice ~lp ~pairs:c.S.Collector.pairs gt pos)
              in
              Result.map
                (fun () -> (sl, dt))
                (Expected.check expected ~label:p.label ~idx ~pos sl))
        in
        Option.iter
          (fun (_, dt) -> first := (t_rec +. t_an +. t_lp +. dt) :: !first)
          (query (ss_pool - 1));
        let ranked = Expected.by_size expected ~label:p.label ~size:ss_pool in
        let per = ss_pool / ss_queries in
        let slices =
          Array.init ss_queries (fun j ->
              let r = query ranked.(pick d j (j * per) per) in
              Option.iter (fun (_, dt) -> sample "query_ms" (1000. *. dt)) r;
              Option.map fst r)
        in
        let per = ss_queries / ss_pinballs in
        for q = 0 to ss_pinballs - 1 do
          match slices.(pick d (ss_queries + q) (q * per) per) with
          | Some sl -> slice_pinball p pb ~steps c sl
          | None -> ()
        done)
    programs;
  first_query_s !first

(* ---- cyclic-replay ---- *)

let cr_ladder = 20_000
let cr_seeks = 128
let cr_checked = 8
let cr_sweep = 64
let cr_reverse = 8
let cr_draws = cr_seeks + cr_checked + cr_reverse

let capture m = call "machine.snapshot" (fun () -> M.Snapshot.capture m)

let session_machine s =
  match Session.machine s with
  | Some m -> m
  | None -> failwith "session has no machine"

(* A seek's machine state must equal a plain replay from the region
   start to the same step, and a checkpoint taken there must restore to
   the same state. *)
let check_seek p pb s ~target =
  let got = capture (session_machine s) in
  let plain = call "replayer.create" (fun () -> P.Replayer.create p.prog pb) in
  ignore
    (call "replayer.resume"
       ~units:(fun _ -> P.Replayer.steps plain)
       (fun () -> P.Replayer.resume ~max_steps:target plain));
  let ck = call "replayer.checkpoint" (fun () -> P.Replayer.checkpoint plain) in
  let restored =
    call "replayer.create_from" (fun () -> P.Replayer.create ~from:ck p.prog pb)
  in
  if P.Replayer.steps plain <> target then
    Error
      (Printf.sprintf "plain replay stopped at %d of %d" (P.Replayer.steps plain)
         target)
  else if got <> ck.P.Replayer.c_snapshot then
    Error (Printf.sprintf "state after goto_step %d differs from a plain replay" target)
  else if capture (P.Replayer.machine restored) <> ck.P.Replayer.c_snapshot then
    Error (Printf.sprintf "checkpoint at step %d does not restore its state" target)
  else Ok ()

let start_replay s =
  op "start_replay" (fun () ->
      call "session.start_replay" (fun () -> Session.start_replay s))

let continue_op ?known ?max_steps s =
  op ?known "continue" (fun () ->
      let before = s.Session.replay_steps in
      let r, dt =
        timed (fun () ->
            call "session.continue_replay"
              ~units:(fun _ -> s.Session.replay_steps - before)
              (fun () -> Session.continue_replay ?max_steps s))
      in
      Result.map (fun stop -> (stop, dt)) r)

let goto s ~target =
  let from =
    List.fold_left
      (fun acc c ->
        let k = c.P.Replayer.c_steps in
        if k <= target && k > acc then k else acc)
      0 s.Session.checkpoints
  in
  let r, dt =
    timed (fun () ->
        call "session.goto_step"
          ~units:(fun _ -> target - from)
          (fun () -> Session.goto_step s ~target))
  in
  match r with
  | Error e -> Error e
  | Ok _ when s.Session.replay_steps <> target ->
    Error (Printf.sprintf "goto_step %d stopped at %d" target s.Session.replay_steps)
  | Ok _ -> Ok dt

let reason_is (stop : Session.stop) want what s ~total =
  if stop.Session.stop_reason = want && s.Session.replay_steps = total then Ok ()
  else
    Error
      (Printf.sprintf "%s: stopped with %S after %d of %d steps" what
         stop.Session.stop_reason s.Session.replay_steps total)

let cyclic_replay programs d =
  let bs, loop =
    match programs with [ bs; loop ] -> (bs, loop) | _ -> assert false
  in
  (recorded bs @@ fun pb total t_rec ->
   let s = Session.create bs.prog in
   Session.load_pinball s pb;
   (* the checkpoint ladder: continue in fixed strides to the region end *)
   let t_ladder = ref 0. in
   let rec ladder () =
     match continue_op ~max_steps:cr_ladder s with
     | None -> false
     | Some (stop, dt) ->
       t_ladder := !t_ladder +. dt;
       if stop.Session.stop_reason = "step limit" then ladder ()
       else
         Option.is_some
           (op "ladder_end" (fun () -> reason_is stop "end of region" "ladder" s ~total))
   in
   if start_replay s <> None && ladder () then begin
     count "session.checkpoints" (float_of_int (List.length s.Session.checkpoints));
     Option.iter
       (fun dt -> first_query_s [ t_rec +. !t_ladder +. dt ])
       (op "seek" (fun () -> goto s ~target:(total / 2)));
     let per = total / cr_seeks in
     let checked = Array.init cr_checked (fun g -> pick d (cr_seeks + g) (g * 16) 16) in
     for j = 0 to cr_seeks - 1 do
       let target = pick d j (j * per) per in
       ignore
       @@ op "seek" (fun () ->
              match goto s ~target with
              | Error e -> Error e
              | Ok dt ->
                sample "query_ms" (1000. *. dt);
                if Array.mem j checked then check_seek bs pb s ~target else Ok ())
     done;
     (* breakpoint sweep on bs_price, then reverse-continue from seeded
        points past the first digest, then run to the end without it *)
     if start_replay s <> None then begin
       match Session.add_breakpoint_func s "bs_price" with
       | Error e -> ignore (op "break" (fun () -> Error e))
       | Ok bp ->
         let rec sweep hits =
           if hits < cr_sweep then
             match continue_op ~known:true s with
             | Some (stop, _) when stop.Session.stop_reason = "breakpoint" ->
               sweep (hits + 1)
             | Some (stop, _) ->
               ignore
                 (op ~known:true "sweep" (fun () ->
                      Error ("sweep ended at " ^ stop.Session.stop_reason)))
             | None -> ()
         in
         sweep 0;
         for k = 0 to cr_reverse - 1 do
           let target = pick d (cr_seeks + cr_checked + k) (total / 4) (3 * total / 4) in
           if op "seek" (fun () -> goto s ~target) <> None then
             ignore
             @@ op ~known:true "reverse_continue" (fun () ->
                    match
                      call "session.reverse_continue" (fun () ->
                          Session.reverse_continue s)
                    with
                    | Error e -> Error e
                    | Ok stop
                      when stop.Session.stop_pc = bp.Session.bp_pc
                           && s.Session.replay_steps < target ->
                      Ok ()
                    | Ok stop ->
                      Error
                        (Printf.sprintf "reverse_continue from %d stopped at pc %d step %d"
                           target stop.Session.stop_pc s.Session.replay_steps))
         done;
         ignore (Session.delete_breakpoint s bp.Session.bp_id);
         match continue_op s with
         | Some (stop, _) ->
           ignore
             (op "run_to_end" (fun () ->
                  reason_is stop "end of region" "continue" s ~total))
         | None -> ()
     end
   end);
  (* the single-threaded loop: every hit of a breakpoint inside the loop
     must still let the replay reach the program's exit *)
  let s = Session.create loop.prog in
  (match
     op "record" (fun () ->
         call "session.record" (fun () -> Session.record s Session.Whole))
   with
  | None -> ()
  | Some st ->
    let total = st.P.Logger.region_instructions in
    ignore (Session.add_breakpoint_line s loop_line);
    if start_replay s <> None then begin
      let rec go n =
        match continue_op ~known:true s with
        | Some (stop, _) when stop.Session.stop_reason = "breakpoint" && n < 1000 ->
          go (n + 1)
        | Some (stop, _) ->
          ignore
            (op ~known:true "loop_end" (fun () ->
                 reason_is stop "exited(0)" "loop" s ~total))
        | None -> ()
      in
      go 0
    end)

(* ---- reexec-slice ---- *)

let rx_pool = 96
let rx_queries = 12

let reexec_slice expected programs d =
  let p = List.hd programs in
  recorded p @@ fun pb steps t_rec ->
  match analyse p pb ~steps with
  | None -> ()
  | Some (c, gt, t_an) -> (
    match
      op "reexec_create" (fun () ->
          Ok
            (timed (fun () ->
                 call "reexec.create" ~units:S.Reexec.length (fun () ->
                     S.Reexec.create p.prog pb))))
    with
    | None -> ()
    | Some (rx, t_rx) ->
      let lp, _ = prepare gt in
      let pool = Expected.pool gt ~size:rx_pool in
      let pairs = c.S.Collector.pairs in
      (* each reexec slice must equal the indexed slice of the same
         criterion, which must match the expected file *)
      let query idx =
        let pos = pool.(idx) in
        op "slice" (fun () ->
            let sl, dt =
              timed (fun () ->
                  slice_call "slicer.compute_reexec" (fun () ->
                      S.Slicer.compute ~driver:(`Reexec rx) ~pairs gt (crit pos)))
            in
            let reference = indexed_slice ~lp ~pairs gt pos in
            if sl.S.Slicer.positions <> reference.S.Slicer.positions then
              Error
                (Printf.sprintf "reexec slice of %d differs from the indexed slice" pos)
            else
              Result.map
                (fun () -> dt)
                (Expected.check expected ~label:p.label ~idx ~pos reference))
      in
      Option.iter
        (fun dt -> first_query_s [ t_rec +. t_an +. t_rx +. dt ])
        (query (rx_pool - 1));
      let per = rx_pool / rx_queries in
      for j = 0 to rx_queries - 1 do
        Option.iter
          (fun dt -> sample "query_ms" (1000. *. dt))
          (query (pick d j (j * per) per))
      done;
      let st = S.Reexec.stats rx in
      count "reexec.slices" (float_of_int (rx_queries + 1));
      count "reexec.records_rederived" (float_of_int st.S.Reexec.records_rederived);
      count "reexec.window_hits" (float_of_int st.S.Reexec.window_hits);
      count "reexec.window_misses" (float_of_int st.S.Reexec.windows_rederived);
      if !Span.recording then
        Hashtbl.replace counters "reexec.peak_bytes"
          (Float.max (counter "reexec.peak_bytes")
             (float_of_int st.S.Reexec.peak_resident_bytes)))

(* ---- workloads ---- *)

type workload = {
  name : string;
  setup : unit -> program list;
  draws : int;  (* random draws one iteration consumes *)
  iterate :
    (string * int, Expected.entry) Hashtbl.t -> program list -> int array -> unit;
  query_span : string;  (* the slicer span a query is timed by, if any *)
}

let ss_programs () =
  [ registry_program ~name:"ammp" ~length:50_000;
    registry_program ~name:"streamcluster" ~length:50_000 ]

let rx_programs () = [ registry_program ~name:"streamcluster" ~length:15_000 ]

let workloads =
  [ { name = "slice-session";
      setup = ss_programs;
      draws = 2 * ss_draws;
      iterate = slice_session;
      query_span = "slicer.compute" };
    { name = "cyclic-replay";
      setup =
        (fun () ->
          [ registry_program ~name:"blackscholes" ~length:100_000; loop_program () ]);
      draws = cr_draws;
      iterate = (fun _ -> cyclic_replay);
      query_span = "" };
    { name = "reexec-slice";
      setup = rx_programs;
      draws = rx_queries;
      iterate = reexec_slice;
      query_span = "slicer.compute_reexec" } ]

(* ---- metrics ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let end_to_end () =
  let top_heap = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
  [ m "setup_s" "s" (median (samples_of "setup_s"));
    m "time_to_first_query_s" "s" (median (samples_of "time_to_first_query_s"));
    m "query_p50_ms" "ms" (quantile 0.5 (samples_of "query_ms"));
    m "query_p90_ms" "ms" (quantile 0.9 (samples_of "query_ms"));
    m "record_steps_per_s" "1/s" (median (samples_of "record_steps_per_s"));
    m "replay_steps_per_s" "1/s" (median (samples_of "replay_steps_per_s"));
    m "pinball_bytes_per_kstep" "B/kstep"
      (median (samples_of "pinball_bytes_per_kstep"));
    m "peak_heap_mb" "MB" (top_heap *. float_of_int (Sys.word_size / 8) /. 1048576.);
    m "ok_ops_ratio" "ratio"
      (ratio (float_of_int (!attempted - !failed)) (float_of_int !attempted)) ]

(* Per-layer metrics from the traced copies.  [runs] counts the traced
   iterations; per-layer totals are averaged over the runs of the span's
   kind (setups for [lang], iterations for the rest). *)
let per_layer w ~setups ~runs ~gc_minor ~gc_major ~overhead_s ~untraced_s =
  let tot = Span.totals () in
  let get name = Hashtbl.find_opt tot name in
  let calls name =
    match get name with Some t -> float_of_int t.Span.calls | None -> 0.
  in
  let self name = match get name with Some t -> t.Span.self_s | None -> 0. in
  let work name = match get name with Some t -> float_of_int t.Span.work | None -> 0. in
  let words name = match get name with Some t -> t.Span.self_words | None -> 0. in
  let per_call name = ratio (self name) (calls name) in
  let layer_sum f layer =
    Hashtbl.fold
      (fun name t acc ->
        match String.index_opt name '.' with
        | Some i when String.sub name 0 i = layer -> acc +. f t
        | _ -> acc)
      tot 0.
  in
  let layer_metrics layer =
    let n = float_of_int (if layer = "lang" then setups else runs) in
    let units = layer_sum (fun t -> float_of_int t.Span.work) layer in
    [ m (layer ^ ".self_s") "s" (ratio (layer_sum (fun t -> t.Span.self_s) layer) n);
      m (layer ^ ".units") "count" (ratio units n);
      m (layer ^ ".minor_words_per_unit") "words"
        (ratio (layer_sum (fun t -> t.Span.self_words) layer) units) ]
  in
  let q = w.query_span in
  let runs_f = float_of_int runs in
  List.concat_map layer_metrics
    [ "lang"; "machine"; "logger"; "pinball"; "replayer"; "relogger"; "session";
      "collector"; "global_trace"; "lp"; "slicer"; "reexec"; "exclusion";
      "slice_replay" ]
  @ [ m "lang.calibrate_s" "s" (per_call "lang.calibrate");
      m "logger.log_s" "s" (per_call "logger.log");
      m "logger.steps_per_s" "1/s" (ratio (work "logger.log") (self "logger.log"));
      m "logger.minor_words_per_step" "words"
        (ratio (words "logger.log") (work "logger.log"));
      m "pinball.encode_s" "s" (per_call "pinball.to_bytes");
      m "pinball.decode_s" "s" (per_call "pinball.of_bytes");
      m "pinball.bytes" "B"
        (ratio (work "pinball.of_bytes") (calls "pinball.of_bytes"));
      m "replayer.replay_s" "s" (per_call "replayer.replay");
      m "replayer.steps_per_s" "1/s"
        (ratio (work "replayer.replay") (self "replayer.replay"));
      m "replayer.minor_words_per_step" "words"
        (ratio (words "replayer.replay") (work "replayer.replay"));
      m "replayer.checkpoint_ms" "ms" (1000. *. per_call "replayer.checkpoint");
      m "replayer.restore_ms" "ms" (1000. *. per_call "replayer.create_from");
      m "session.checkpoints" "count" (ratio (counter "session.checkpoints") runs_f);
      m "session.seek_steps_replayed" "count"
        (ratio (work "session.goto_step") (calls "session.goto_step"));
      m "session.continue_ms" "ms" (1000. *. per_call "session.continue_replay");
      m "collector.collect_s" "s" (per_call "collector.collect");
      m "collector.records_per_s" "1/s"
        (ratio (work "collector.collect") (self "collector.collect"));
      m "collector.minor_words_per_record" "words"
        (ratio (words "collector.collect") (work "collector.collect"));
      m "global_trace.construct_s" "s" (per_call "global_trace.construct");
      m "lp.prepare_s" "s" (per_call "lp.prepare");
      m "lp.records_per_s" "1/s" (ratio (work "lp.prepare") (self "lp.prepare"));
      m "slicer.query_s" "s" (per_call q);
      m "slicer.visited_per_query" "count" (ratio (work q) (calls q));
      m "slicer.useful_ratio" "ratio" (ratio (counter (q ^ ".slice_size")) (work q));
      m "slicer.minor_words_per_query" "words" (ratio (words q) (calls q));
      m "reexec.build_s" "s" (per_call "reexec.create");
      m "reexec.rederived_per_slice" "count"
        (ratio (counter "reexec.records_rederived") (counter "reexec.slices"));
      m "reexec.window_hit_rate" "ratio"
        (ratio (counter "reexec.window_hits")
           (counter "reexec.window_hits" +. counter "reexec.window_misses"));
      m "reexec.peak_bytes" "B" (counter "reexec.peak_bytes");
      m "exclusion.build_s" "s" (per_call "exclusion.build");
      m "exclusion.regions" "count"
        (ratio (counter "exclusion.regions") (calls "exclusion.build"));
      m "relogger.relog_s" "s" (per_call "relogger.relog");
      m "slice_replay.run_s" "s" (per_call "slice_replay.run");
      m "slice_replay.steps_pct" "%"
        (100. *. ratio (work "slice_replay.run") (counter "slice_replay.region_steps"));
      m "gc.minor_collections" "count" (ratio gc_minor runs_f);
      m "gc.major_collections" "count" (ratio gc_major runs_f);
      m "trace.overhead_s" "s" (ratio overhead_s runs_f);
      m "trace.overhead_pct" "%" (100. *. ratio overhead_s untraced_s) ]

(* ---- driver ---- *)

let setup_reps = 5
let max_iterations = 256

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  List.iter
    (fun x -> Printf.printf "%-36s %18.6f %s\n" x.m_name x.m_value x.m_unit)
    metrics;
  Hashtbl.iter
    (fun msg n -> Printf.printf "known defect (%d times): %s\n" n msg)
    known_failures;
  List.iter
    (fun u -> Printf.printf "unexpected failure: %s\n" u)
    (List.rev !unexpected);
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
          (json_number (if Float.is_finite x.m_value then x.m_value else 0.))
          x.m_unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!unexpected = []) !attempted !failed (String.concat ", " fields)

let gc_counts () =
  let st = Gc.quick_stat () in
  (float_of_int st.Gc.minor_collections, float_of_int st.Gc.major_collections)

let run w ~seed ~seconds ~trace =
  let expected = Expected.load () in
  Span.recording := trace;
  (* set-up: compile, calibrate and draw the criteria, several times *)
  let setup () =
    let programs = w.setup () in
    let rng = Random.State.make [| seed; 0x5e7 |] in
    let draws =
      Array.init max_iterations (fun _ ->
          Array.init w.draws (fun _ -> Random.State.bits rng))
    in
    (programs, draws)
  in
  let last = ref None in
  for k = 1 to setup_reps do
    Span.run_id := -k;
    Gc.compact ();
    let r, dt = timed setup in
    sample "setup_s" dt;
    last := Some r
  done;
  let programs, draws = Option.get !last in
  (* one untimed warm-up iteration grows the heap to its working size,
     so that the measured iterations do not pay for first-touch memory *)
  Span.recording := false;
  w.iterate expected programs draws.(0);
  Hashtbl.filter_map_inplace
    (fun k v -> if k = "setup_s" then Some v else None)
    samples;
  Gc.compact ();
  let t_end = now () +. float_of_int seconds in
  let runs = ref 0 and overhead = ref 0. and untraced = ref 0. in
  let gc_minor = ref 0. and gc_major = ref 0. in
  while !runs = 0 || (now () < t_end && !runs + 1 < max_iterations) do
    let d = draws.(!runs + 1) in
    if trace then begin
      Span.recording := false;
      let (), t_plain = timed (fun () -> w.iterate expected programs d) in
      Gc.compact ();
      Span.recording := true;
      Span.run_id := !runs;
      let mi0, ma0 = gc_counts () in
      let (), t_traced =
        timed (fun () ->
            call "bench.iteration" (fun () -> w.iterate expected programs d))
      in
      let mi1, ma1 = gc_counts () in
      gc_minor := !gc_minor +. (mi1 -. mi0);
      gc_major := !gc_major +. (ma1 -. ma0);
      overhead := !overhead +. (t_traced -. t_plain);
      untraced := !untraced +. t_plain
    end
    else w.iterate expected programs d;
    Gc.compact ();
    incr runs
  done;
  let metrics =
    if trace then
      per_layer w ~setups:setup_reps ~runs:!runs ~gc_minor:!gc_minor
        ~gc_major:!gc_major ~overhead_s:!overhead ~untraced_s:!untraced
    else end_to_end ()
  in
  if trace then begin
    (try Sys.mkdir ".pipebench" 0o755 with Sys_error _ -> ());
    Span.write (Printf.sprintf ".pipebench/spans-%s-seed%d.jsonl" w.name seed)
  end;
  Printf.printf "workload %s seed %d: %d iterations\n" w.name seed !runs;
  print_result metrics

let make_expected () =
  let block ~pool_size p =
    let pb, _ =
      match P.Logger.log p.prog (P.Logger.Skip_length { skip; length = p.length }) with
      | Ok x -> x
      | Error e -> failwith (Format.asprintf "%a" P.Logger.pp_error e)
    in
    let c = S.Collector.collect p.prog pb in
    let gt = S.Global_trace.construct c in
    let lp = S.Lp.prepare gt in
    Expected.lines ~label:p.label ~lp ~pairs:c.S.Collector.pairs gt
      (Expected.pool gt ~size:pool_size)
  in
  Expected.write
    (List.map (block ~pool_size:ss_pool) (ss_programs ())
    @ List.map (block ~pool_size:rx_pool) (rx_programs ()));
  print_endline ("wrote " ^ Expected.file)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --make-expected";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--make-expected" ] then make_expected ()
  else begin
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let w =
      match List.find_opt (fun w -> w.name = get "workload") workloads with
      | Some w -> w
      | None ->
        prerr_endline
          ("unknown workload; one of: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
    in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    run w ~seed:(int "seed") ~seconds:(max 1 (int "seconds")) ~trace
  end
