(* Tests for the drdebug core: end-to-end cyclic-debugging sessions
   driven through the command language (the paper's Fig. 2 workflow). *)

let compile src =
  match Dr_lang.Codegen.compile_result ~name:"test" ~file:"test.c" src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "compile error: %s" msg

let exec dbg cmd =
  match Drdebug.Debugger.exec dbg cmd with
  | Ok out -> out
  | Error e -> Alcotest.failf "command %S failed: %s" cmd e

let exec_err dbg cmd =
  match Drdebug.Debugger.exec dbg cmd with
  | Ok _ -> Alcotest.failf "command %S should have failed" cmd
  | Error e -> e

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  ln = 0 || at 0

let simple_src = {|global int g;
fn helper(int x) {
  int y = x * 2;
  return y;
}
fn main() {
  int a = helper(5);
  g = a + 1;
  int bad = g - 11;
  assert(bad == 99, "bad value");
}|}

let test_record_replay_print () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  let out = exec dbg "record whole" in
  Alcotest.(check bool) "recorded" true (contains out "recorded whole execution");
  ignore (exec dbg "replay");
  (* break on the line computing g and inspect *)
  ignore (exec dbg "break 8");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "stopped at breakpoint" true (contains out "breakpoint");
  (* a has been computed by now *)
  let out = exec dbg "print a" in
  Alcotest.(check bool) "a = 10" true (contains out "a = 10")

let test_breakpoints_by_function () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  let out = exec dbg "break helper" in
  Alcotest.(check bool) "bp set" true (contains out "breakpoint 1");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "stopped in helper" true (contains out "breakpoint");
  let out = exec dbg "backtrace" in
  Alcotest.(check bool) "helper on stack" true (contains out "helper");
  Alcotest.(check bool) "main on stack" true (contains out "main")

let test_replay_is_cyclic () =
  (* the defining property: replaying twice stops at the same place with
     the same state (paper challenge 2) *)
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  let run_once () =
    ignore (exec dbg "replay");
    ignore (exec dbg "continue");
    exec dbg "print g"
  in
  ignore (exec dbg "break 9");
  let g1 = run_once () in
  let g2 = run_once () in
  Alcotest.(check string) "same g across replays" g1 g2

let test_stepi_and_where () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  let out = exec dbg "stepi 5" in
  Alcotest.(check bool) "stepped" true (contains out "step limit");
  let out = exec dbg "where" in
  Alcotest.(check bool) "where works" true (contains out "tid 0")

let test_info_threads_and_pinball () =
  let src = {|global int x;
fn worker(int n) { x = n; }
fn main() {
  int t = spawn(worker, 7);
  join(t);
  print(x);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  let out = exec dbg "info threads" in
  Alcotest.(check bool) "two threads" true
    (contains out "tid 0" && contains out "tid 1");
  let out = exec dbg "info pinball" in
  Alcotest.(check bool) "pinball info" true (contains out "pinball:")

let test_slice_workflow () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  (* the replay ends at the assert; slice the failure *)
  let out = exec dbg "slice-failure" in
  Alcotest.(check bool) "slice computed" true (contains out "failure slice:");
  let out = exec dbg "slice-lines" in
  (* g = a + 1 (line 8) and a = helper(5) (line 7) feed the failing assert *)
  Alcotest.(check bool) "line 8 highlighted" true (contains out "g = a + 1");
  Alcotest.(check bool) "line 7 highlighted" true (contains out "helper(5)");
  let out = exec dbg "info slice" in
  Alcotest.(check bool) "stats shown" true (contains out "statements");
  let out = exec dbg "slice-stmts 5" in
  Alcotest.(check bool) "statements listed" true (contains out "tid 0");
  (* navigation: the last statement (the assert) has dependences *)
  let slice = Option.get dbg.Drdebug.Debugger.session.Drdebug.Session.slice in
  let out = exec dbg (Printf.sprintf "deps %d" (Dr_slicing.Slicer.size slice - 1)) in
  Alcotest.(check bool) "deps listed" true
    (contains out "data" || contains out "control")

let test_slice_var_at_stop () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "break 9");
  ignore (exec dbg "continue");
  let out = exec dbg "slice g" in
  Alcotest.(check bool) "slice for g" true (contains out "slice for g");
  let out = exec dbg "slice-lines" in
  Alcotest.(check bool) "g's def in slice" true (contains out "g = a + 1")

let test_execution_slice_stepping () =
  let src = {|global int g;
global int noise;
fn main() {
  int a = 2;
  for (int i = 0; i < 40; i = i + 1) {
    noise = noise + i;
  }
  g = a * 10;
  int w = g + 1;
  assert(w == 0, "w");
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  let out = exec dbg "slice-pinball" in
  Alcotest.(check bool) "exclusions happened" true (contains out "exclusion regions");
  ignore (exec dbg "slice-replay");
  (* step through every slice statement; the noisy loop must not appear *)
  let all_steps = Buffer.create 256 in
  let rec go n =
    if n > 200 then Alcotest.fail "slice stepping did not terminate"
    else begin
      let out = exec dbg "sstep" in
      Buffer.add_string all_steps out;
      if contains out "finished" || contains out "end of execution slice" then ()
      else go (n + 1)
    end
  in
  go 0;
  let steps = Buffer.contents all_steps in
  Alcotest.(check bool) "a=2 stepped" true (contains steps "int a = 2");
  Alcotest.(check bool) "g=a*10 stepped" true (contains steps "g = a * 10");
  Alcotest.(check bool) "noise never stepped" false (contains steps "noise + i");
  (* and variables are examinable during slice replay *)
  ()

let test_print_during_slice_replay () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  ignore (exec dbg "slice-pinball");
  ignore (exec dbg "slice-replay");
  (* step until g has been written, then print it *)
  let rec go n saw_g =
    if n > 100 then saw_g
    else begin
      match Drdebug.Debugger.exec dbg "sstep" with
      | Error _ -> saw_g
      | Ok out ->
        if contains out "g = a + 1" then true
        else if contains out "finished" || contains out "end of" then saw_g
        else go (n + 1) saw_g
    end
  in
  let reached = go 0 false in
  Alcotest.(check bool) "reached g's def while stepping" true reached;
  ignore (exec dbg "sstep");
  let out = exec dbg "print g" in
  Alcotest.(check bool) "g examinable in slice replay" true (contains out "g = 11")

(* ---- reverse debugging (paper section 8, implemented) ---- *)

let loop_src = {|global int g;
fn main() {
  for (int i = 0; i < 20; i = i + 1) {
    g = g + i;
  }
  print(g);
}|}

let test_breakpoint_hit_repeatedly () =
  (* continuing from a breakpoint must make progress (gdb step-off) *)
  let dbg = Drdebug.Debugger.of_program (compile loop_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "break 4");
  let hits = ref 0 in
  let rec go n =
    if n > 50 then Alcotest.fail "breakpoint loop did not terminate"
    else begin
      let out = exec dbg "continue" in
      if contains out "breakpoint" then begin
        incr hits;
        go (n + 1)
      end
    end
  in
  go 0;
  Alcotest.(check int) "hit once per iteration" 20 !hits

let test_reverse_stepi () =
  let dbg = Drdebug.Debugger.of_program (compile loop_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "stepi 100");
  let g_at_100 = exec dbg "print g" in
  ignore (exec dbg "stepi 30");
  let out = exec dbg "reverse-stepi 30" in
  Alcotest.(check bool) "rewound" true (contains out "rewound to step 100");
  let g_again = exec dbg "print g" in
  Alcotest.(check string) "state identical after rewind" g_at_100 g_again

let test_reverse_continue () =
  let dbg = Drdebug.Debugger.of_program (compile loop_src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "break 4");
  (* run to the 3rd hit, then reverse to the 2nd *)
  ignore (exec dbg "continue");
  let g1 = exec dbg "print g" in
  ignore (exec dbg "continue");
  let g2 = exec dbg "print g" in
  ignore (exec dbg "continue");
  let out = exec dbg "reverse-continue" in
  Alcotest.(check bool) "reverse hit" true (contains out "reverse-continue");
  let g_back = exec dbg "print g" in
  Alcotest.(check string) "at 2nd hit state" g2 g_back;
  (* and once more, back to the 1st hit *)
  ignore (exec dbg "reverse-continue");
  let g_back1 = exec dbg "print g" in
  Alcotest.(check string) "at 1st hit state" g1 g_back1;
  (* forward again works *)
  let out = exec dbg "continue" in
  Alcotest.(check bool) "forward after reverse" true (contains out "breakpoint")

(* ---- breakpoint stops through the session API ---- *)

let threads_src = {|global int acc;
fn bump(int v) { acc = acc + v; }
fn worker(int id) {
  for (int i = 0; i < 6; i = i + 1) { bump(id + i); }
}
fn main() {
  int a = spawn(worker, 1);
  int b = spawn(worker, 2);
  int c = spawn(worker, 3);
  worker(4);
  join(a);
  join(b);
  join(c);
  print(acc);
}|}

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what e

(* a session with a whole-program recording; returns the region length *)
let recorded_session src =
  let s = Drdebug.Session.create (compile src) in
  let st = ok "record" (Drdebug.Session.record s Drdebug.Session.Whole) in
  (s, st.Dr_pinplay.Logger.region_instructions)

let test_breakpoint_loop_reaches_exit () =
  let s, total = recorded_session loop_src in
  ignore (ok "break" (Drdebug.Session.add_breakpoint_line s 4));
  ok "replay" (Drdebug.Session.start_replay s);
  let rec go hits =
    let stop = ok "continue" (Drdebug.Session.continue_replay s) in
    if stop.Drdebug.Session.stop_reason = "breakpoint" && hits < 100 then
      go (hits + 1)
    else (hits, stop)
  in
  let hits, stop = go 0 in
  Alcotest.(check int) "hit once per iteration" 20 hits;
  Alcotest.(check string) "reached the program's exit" "exited(0)"
    stop.Drdebug.Session.stop_reason;
  Alcotest.(check int) "replayed every recorded step" total
    s.Drdebug.Session.replay_steps

let test_reverse_continue_threads () =
  let s, total = recorded_session threads_src in
  let bp = ok "break" (Drdebug.Session.add_breakpoint_func s "bump") in
  ok "replay" (Drdebug.Session.start_replay s);
  for _ = 1 to 10 do
    let stop = ok "continue" (Drdebug.Session.continue_replay s) in
    Alcotest.(check string) "stopped at bump" "breakpoint"
      stop.Drdebug.Session.stop_reason
  done;
  let last_hit = s.Drdebug.Session.replay_steps in
  ignore (ok "stepi" (Drdebug.Session.stepi s 3));
  let here = s.Drdebug.Session.replay_steps in
  let stop = ok "reverse-continue" (Drdebug.Session.reverse_continue s) in
  Alcotest.(check int) "stopped at the breakpoint pc" bp.Drdebug.Session.bp_pc
    stop.Drdebug.Session.stop_pc;
  Alcotest.(check bool) "before the current step" true
    (s.Drdebug.Session.replay_steps < here);
  Alcotest.(check int) "at the most recent hit" last_hit
    s.Drdebug.Session.replay_steps;
  (match Drdebug.Session.machine s with
  | Some m ->
    Alcotest.(check int) "the stopped thread sits at the breakpoint"
      bp.Drdebug.Session.bp_pc
      (Dr_machine.Machine.thread m stop.Drdebug.Session.stop_tid)
        .Dr_machine.Machine.pc
  | None -> Alcotest.fail "no machine after reverse-continue");
  (* forward again, to the end, without the breakpoint *)
  ignore (Drdebug.Session.delete_breakpoint s bp.Drdebug.Session.bp_id);
  let stop = ok "continue" (Drdebug.Session.continue_replay s) in
  Alcotest.(check string) "ran to the exit" "exited(0)"
    stop.Drdebug.Session.stop_reason;
  Alcotest.(check int) "every recorded step replayed" total
    s.Drdebug.Session.replay_steps

(* [sched] with a one-instruction slice of a nonexistent thread spliced
   in after [step] retired instructions *)
let splice_bad_tid sched step =
  let seen = ref 0 in
  Array.to_list sched
  |> List.concat_map (fun (tid, n) ->
         let before = step - !seen in
         seen := !seen + n;
         if before >= 0 && before < n then
           List.filter
             (fun (_, k) -> k > 0)
             [ (tid, before); (99, 1); (tid, n - before) ]
         else [ (tid, n) ])
  |> Array.of_list

let test_divergence_is_an_error () =
  let s, total = recorded_session threads_src in
  let pb = Option.get s.Drdebug.Session.pinball in
  ok "replay" (Drdebug.Session.start_replay s);
  let half = total / 2 in
  ignore
    (ok "continue" (Drdebug.Session.continue_replay ~max_steps:(half + 50) s));
  (* the pinball changes under the live session: its schedule now names
     a nonexistent thread at step [half] *)
  s.Drdebug.Session.pinball <-
    Some
      { pb with
        Dr_pinplay.Pinball.schedule =
          splice_bad_tid pb.Dr_pinplay.Pinball.schedule half };
  s.Drdebug.Session.checkpoints <- [];
  let is_divergence what = function
    | Ok _ -> Alcotest.failf "%s succeeded on an altered schedule" what
    | Error e ->
      Alcotest.(check bool) (what ^ " reports the divergence") true
        (contains e "divergence")
  in
  is_divergence "goto"
    (try Drdebug.Session.goto_step s ~target:(half + 10)
     with e -> Alcotest.failf "goto raised %s" (Printexc.to_string e));
  is_divergence "reverse-continue"
    (try Drdebug.Session.reverse_continue s
     with e -> Alcotest.failf "reverse-continue raised %s" (Printexc.to_string e))

(* every breakpoint hit of a plain forward replay of the region, as
   (step, tid, pc) in step order *)
let forward_hits s ~pc =
  let pb = Option.get s.Drdebug.Session.pinball in
  let r = Dr_pinplay.Replayer.create s.Drdebug.Session.prog pb in
  let hits = ref [] in
  let rec go () =
    match Dr_pinplay.Replayer.resume ~break_at:(fun ~tid:_ ~pc:p -> p = pc) r with
    | Dr_machine.Driver.Breakpoint { tid; pc } ->
      hits := (Dr_pinplay.Replayer.steps r, tid, pc) :: !hits;
      (match Dr_pinplay.Replayer.resume ~max_steps:1 r with
      | Dr_machine.Driver.Max_steps -> go ()
      | _ -> ())
    | _ -> ()
  in
  go ();
  List.rev !hits

let test_dense_ladder () =
  let s, total = recorded_session threads_src in
  let interval = 40 in
  s.Drdebug.Session.checkpoint_interval <- interval;
  ok "replay" (Drdebug.Session.start_replay s);
  (* a seek from the region start lays the rungs it passes *)
  ignore (ok "goto" (Drdebug.Session.goto_step s ~target:(total / 2)));
  Alcotest.(check (list int)) "rungs up to the seek"
    (List.init (total / 2 / interval) (fun i -> (total / 2 / interval - i) * interval))
    (List.map (fun c -> c.Dr_pinplay.Replayer.c_steps) s.Drdebug.Session.checkpoints);
  ok "replay" (Drdebug.Session.start_replay s);
  let stop = ok "continue" (Drdebug.Session.continue_replay s) in
  Alcotest.(check string) "ran to the exit" "exited(0)" stop.Drdebug.Session.stop_reason;
  let steps = List.map (fun c -> c.Dr_pinplay.Replayer.c_steps) s.Drdebug.Session.checkpoints in
  Alcotest.(check (list int)) "a rung at every multiple, latest first"
    (List.init (total / interval) (fun i -> (total / interval - i) * interval))
    (List.filter (fun k -> k < total) steps);
  let pb = Option.get s.Drdebug.Session.pinball in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 20 do
    let target = Random.State.int rng total in
    ignore (ok "goto" (Drdebug.Session.goto_step s ~target));
    (* goto starts from the first rung at or below the target, or the
       region start *)
    let from =
      match
        List.find_opt
          (fun c -> c.Dr_pinplay.Replayer.c_steps <= target)
          s.Drdebug.Session.checkpoints
      with
      | Some c -> c.Dr_pinplay.Replayer.c_steps
      | None -> 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "goto %d replays fewer than %d steps" target interval)
      true
      (target - from < interval);
    let plain = Dr_pinplay.Replayer.create s.Drdebug.Session.prog pb in
    ignore (Dr_pinplay.Replayer.resume ~max_steps:target plain);
    Alcotest.(check bool)
      (Printf.sprintf "goto %d state equals a plain replay" target)
      true
      (Dr_machine.Snapshot.capture (Option.get (Drdebug.Session.machine s))
      = Dr_machine.Snapshot.capture (Dr_pinplay.Replayer.machine plain))
  done

let test_reverse_continue_windows () =
  let s, total = recorded_session threads_src in
  s.Drdebug.Session.checkpoint_interval <- 37;
  let bp = ok "break" (Drdebug.Session.add_breakpoint_func s "bump") in
  let pc = bp.Drdebug.Session.bp_pc in
  let hits = forward_hits s ~pc in
  Alcotest.(check int) "one hit per bump call" 24 (List.length hits);
  ok "replay" (Drdebug.Session.start_replay s);
  ignore (ok "to the end" (Drdebug.Session.continue_replay ~max_steps:total s));
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 40 do
    let start = Random.State.int rng (total + 1) in
    ignore (ok "goto" (Drdebug.Session.goto_step s ~target:start));
    let expect = List.filter (fun (k, _, _) -> k < start) hits |> List.rev in
    match (Drdebug.Session.reverse_continue s, expect) with
    | Error _, [] -> ()
    | Error e, _ -> Alcotest.failf "reverse-continue from %d failed: %s" start e
    | Ok _, [] -> Alcotest.failf "reverse-continue from %d found a hit" start
    | Ok stop, (k, tid, _) :: _ ->
      let what = Printf.sprintf "reverse-continue from %d" start in
      Alcotest.(check int) (what ^ ": step") k s.Drdebug.Session.replay_steps;
      Alcotest.(check int) (what ^ ": tid") tid stop.Drdebug.Session.stop_tid;
      Alcotest.(check int) (what ^ ": pc") pc stop.Drdebug.Session.stop_pc
  done

let test_goto_and_checkpoints () =
  let src = {|global int g;
fn main() {
  for (int i = 0; i < 3000; i = i + 1) {
    g = g + i;
  }
  print(g);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  (* long enough for auto-checkpoints *)
  let out = exec dbg "info checkpoints" in
  Alcotest.(check bool) "checkpoints captured" true (contains out "checkpoint at step");
  let out = exec dbg "goto 5000" in
  Alcotest.(check bool) "goto" true (contains out "rewound to step 5000");
  let g5000 = exec dbg "print g" in
  ignore (exec dbg "goto 9000");
  ignore (exec dbg "goto 5000");
  Alcotest.(check string) "goto deterministic" g5000 (exec dbg "print g")

let test_error_paths () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec_err dbg "replay");
  ignore (exec_err dbg "continue");
  ignore (exec_err dbg "slice g");
  ignore (exec_err dbg "slice-pinball");
  ignore (exec_err dbg "nonsense");
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec_err dbg "print nosuchvar");
  ignore (exec_err dbg "break 9999");
  ignore (exec_err dbg "delete 42");
  let out = exec dbg "help" in
  Alcotest.(check bool) "help text" true (contains out "slice-pinball")

let test_watchpoints () =
  let src = {|global int counter;
fn main() {
  for (int i = 0; i < 5; i = i + 1) {
    counter = counter + 10;
  }
  print(counter);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  let out = exec dbg "watch counter" in
  Alcotest.(check bool) "watch set" true (contains out "watchpoint");
  (* each continue stops at the next write, with the new value *)
  let out1 = exec dbg "continue" in
  Alcotest.(check bool) "first write" true (contains out1 "counter = 10");
  let out2 = exec dbg "continue" in
  Alcotest.(check bool) "second write" true (contains out2 "counter = 20");
  let out3 = exec dbg "continue" in
  Alcotest.(check bool) "third write" true (contains out3 "counter = 30");
  (* deleting the watchpoint lets the replay run to the end *)
  let id =
    match dbg.Drdebug.Debugger.session.Drdebug.Session.watchpoints with
    | w :: _ -> w.Drdebug.Session.wp_id
    | [] -> Alcotest.fail "no watchpoint"
  in
  ignore (exec dbg (Printf.sprintf "delete %d" id));
  let out = exec dbg "continue" in
  Alcotest.(check bool) "runs to end" true
    (contains out "exited" || contains out "end of region")

let test_watch_and_break_mix () =
  let src = {|global int g;
fn helper(int x) { g = x; return x; }
fn main() {
  int a = helper(1);
  int b = helper(2);
  print(a + b);
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  ignore (exec dbg "record whole");
  ignore (exec dbg "replay");
  ignore (exec dbg "watch g");
  ignore (exec dbg "break helper");
  (* first stop: breakpoint at helper entry, before any write *)
  let out = exec dbg "continue" in
  Alcotest.(check bool) "breakpoint first" true (contains out "breakpoint");
  (* then the watchpoint fires inside helper *)
  let out = exec dbg "continue" in
  Alcotest.(check bool) "watchpoint next" true (contains out "watchpoint: g = 1")

let test_slice_tree_and_save () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  let out = exec dbg "slice-tree" in
  Alcotest.(check bool) "tree has edges" true (contains out "data(");
  let out = exec dbg "slice-tree 0 1" in
  Alcotest.(check bool) "tree from idx 0" true (contains out "[0]");
  (* save and reload the slice file *)
  let path = Filename.temp_file "drdebug" ".slice" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let out = exec dbg (Printf.sprintf "slice-save %s" path) in
      Alcotest.(check bool) "saved" true (contains out "saved");
      let stmts = Dr_slicing.Slicer.load_file_statements path in
      Alcotest.(check bool) "reloadable" true (stmts <> []))

let test_list_command () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  let out = exec dbg "list 8" in
  Alcotest.(check bool) "shows target line" true (contains out "g = a + 1");
  Alcotest.(check bool) "marks it" true (contains out ">")

let test_sstep_multi () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record until-fail");
  ignore (exec dbg "replay");
  ignore (exec dbg "continue");
  ignore (exec dbg "slice-failure");
  ignore (exec dbg "slice-pinball");
  ignore (exec dbg "slice-replay");
  let out = exec dbg "sstep 3" in
  (* three slice statements reported in one command *)
  let count =
    List.length
      (List.filter
         (fun l -> String.length l > 0)
         (String.split_on_char '\n' out))
  in
  Alcotest.(check bool) "three lines of stepping" true (count >= 3)

let test_maple_command () =
  let src = {|global int x;
fn t1(int n) { x = 1; }
fn main() {
  int t = spawn(t1, 0);
  int k = x;
  join(t);
  assert(k == 0, "race");
}|} in
  let dbg = Drdebug.Debugger.of_program (compile src) in
  let out = exec dbg "maple" in
  Alcotest.(check bool) "maple exposed" true (contains out "maple exposed");
  (* the loaded pinball replays to the failure *)
  ignore (exec dbg "replay");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "assert reproduced" true (contains out "assertion failed")

let test_precision_toggles () =
  let dbg = Drdebug.Debugger.of_program (compile simple_src) in
  ignore (exec dbg "record whole");
  let out = exec dbg "set prune off" in
  Alcotest.(check bool) "prune off" true (contains out "off");
  let out = exec dbg "set refine on" in
  Alcotest.(check bool) "refine on" true (contains out "on")

let test_bug_case_study_workflow () =
  (* full paper workflow on the pbzip2 model: record the failing run,
     replay, slice the failure, confirm the root cause line is in the
     slice, generate and replay the execution slice *)
  let b = Option.get (Dr_workloads.Bugs.find "pbzip2") in
  let seed, _ = Option.get (Dr_workloads.Bugs.find_failing_seed b) in
  let session =
    Drdebug.Session.create
      ~policy:(Dr_machine.Driver.Seeded { seed; max_quantum = 3 })
      (Dr_workloads.Bugs.compile b)
  in
  let dbg = Drdebug.Debugger.create session in
  let out = exec dbg "record until-fail" in
  Alcotest.(check bool) "captured failure" true (contains out "assertion failed");
  ignore (exec dbg "replay");
  let out = exec dbg "continue" in
  Alcotest.(check bool) "failure reproduced" true (contains out "assertion failed");
  ignore (exec dbg "slice-failure");
  let out = exec dbg "slice-lines" in
  Alcotest.(check bool) "root cause in slice" true (contains out "fifo_freed = 1");
  let out = exec dbg "slice-pinball" in
  Alcotest.(check bool) "slice pinball built" true (contains out "instructions kept")

let () =
  Alcotest.run "drdebug"
    [ ( "record/replay",
        [ Alcotest.test_case "record+replay+print" `Quick test_record_replay_print;
          Alcotest.test_case "function breakpoints" `Quick
            test_breakpoints_by_function;
          Alcotest.test_case "cyclic replay" `Quick test_replay_is_cyclic;
          Alcotest.test_case "stepi/where" `Quick test_stepi_and_where;
          Alcotest.test_case "info" `Quick test_info_threads_and_pinball ] );
      ( "slicing",
        [ Alcotest.test_case "failure slice workflow" `Quick test_slice_workflow;
          Alcotest.test_case "slice var at stop" `Quick test_slice_var_at_stop;
          Alcotest.test_case "execution slice stepping" `Quick
            test_execution_slice_stepping;
          Alcotest.test_case "print during slice replay" `Quick
            test_print_during_slice_replay ] );
      ( "reverse debugging",
        [ Alcotest.test_case "repeated breakpoint hits" `Quick
            test_breakpoint_hit_repeatedly;
          Alcotest.test_case "reverse-stepi" `Quick test_reverse_stepi;
          Alcotest.test_case "reverse-continue" `Quick test_reverse_continue;
          Alcotest.test_case "goto + checkpoints" `Quick
            test_goto_and_checkpoints;
          Alcotest.test_case "breakpoint loop reaches exit" `Quick
            test_breakpoint_loop_reaches_exit;
          Alcotest.test_case "reverse-continue over 4 threads" `Quick
            test_reverse_continue_threads;
          Alcotest.test_case "divergence is an error" `Quick
            test_divergence_is_an_error;
          Alcotest.test_case "dense checkpoint ladder" `Quick test_dense_ladder;
          Alcotest.test_case "reverse-continue equals a forward scan" `Quick
            test_reverse_continue_windows ] );
      ( "robustness",
        [ Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "precision toggles" `Quick test_precision_toggles;
          Alcotest.test_case "watchpoints" `Quick test_watchpoints;
          Alcotest.test_case "watch+break mix" `Quick test_watch_and_break_mix;
          Alcotest.test_case "slice tree + save" `Quick test_slice_tree_and_save;
          Alcotest.test_case "list" `Quick test_list_command;
          Alcotest.test_case "sstep n" `Quick test_sstep_multi ] );
      ( "integration",
        [ Alcotest.test_case "maple command" `Quick test_maple_command;
          Alcotest.test_case "pbzip2 case study" `Quick
            test_bug_case_study_workflow ] ) ]
