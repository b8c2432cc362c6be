(** Trace collection during deterministic replay (paper §3(i), §5).

    The collector attaches to a {!Dr_pinplay.Replayer} run of a region
    pinball and records, per retired instruction:

    - the locations defined and used (registers thread-local, memory
      global),
    - the dynamic control dependence, via the online Xin–Zhang algorithm
      driven by immediate post-dominators from {!Dr_cfg.Cfg},
    - shared-memory access-order edges between threads (RAW/WAW/WAR),
      needed to construct the combined global trace,
    - dynamically observed indirect-jump targets (for CFG refinement),
    - dynamically confirmed save/restore pairs (for spurious-dependence
      pruning).

    Because replay is deterministic, collection can run in two passes:
    pass 1 gathers indirect-jump targets, the CFG is refined, and pass 2
    collects the trace with precise control dependences (the [refine]
    flag; §5.1). *)

open Dr_machine

type result = {
  records : Segment_store.t;  (** indexed by gseq = execution order *)
  per_thread : int array array;  (** tid -> gseqs in program order *)
  order_edges : (int * int) array;  (** (earlier gseq, later gseq) cross-thread *)
  indirect_targets : (int * int list) list;
  pairs : Prune.pairs;
  cfg : Dr_cfg.Cfg.t;  (** the CFG used in the final pass *)
  collect_time : float;  (** wall-clock seconds for trace collection *)
}

(* per-thread control-dependence stack entry *)
type cd_entry = { branch_gseq : int; ipdom_pc : int; cd_depth : int }
(* ipdom_pc = -1 means "pops at function return" *)

type thread_cd = {
  mutable stack : cd_entry list;
  mutable depth : int;
}

(** The record-derivation state machine, factored out of the collection
    hook so that {!Reexec} can re-derive the {e exact} records of a
    window by replaying forward from a checkpoint: Xin–Zhang
    control-dependence stacks, per-(tid, pc) instance counters,
    per-thread local indices, and the line table.  The state is
    {e prefix-dependent} — a record's cd/instance/lidx fields depend on
    every earlier event of its thread — so a checkpoint that wants to
    resume derivation mid-trace must carry a {!Derive.copy} taken at the
    same event boundary as the machine snapshot.

    Both users drive it identically: one {!Derive.next} call per retired
    instruction, in event order.  The collector keeps its own concerns
    (segment appends, access-order edges, save/restore confirmation,
    watchdog polling) outside, so a byte-for-byte agreement between a
    collected record and a re-derived one follows from determinism of
    the replay plus this shared core. *)
module Derive = struct
  type t = {
    cfg : Dr_cfg.Cfg.t;  (* shared, read-only *)
    nline : int;
    line_of_pc : int array;  (* shared, read-only *)
    cd_threads : (int, thread_cd) Hashtbl.t;
    instance_counts : (int, int) Hashtbl.t;  (* (tid lsl 32) lor pc *)
    lidx_counts : (int, int) Hashtbl.t;  (* tid -> records so far *)
    scratch_defs : Dr_util.Vec.Int_vec.t;  (* per-copy, never shared *)
    scratch_uses : Dr_util.Vec.Int_vec.t;
  }

  let create ~(cfg : Dr_cfg.Cfg.t) (prog : Dr_isa.Program.t) : t =
    let nline = Array.length prog.Dr_isa.Program.code in
    let line_of_pc =
      Array.init nline (fun pc ->
          Option.value ~default:(-1)
            (Dr_isa.Debug_info.line_of_pc prog.Dr_isa.Program.debug pc))
    in
    { cfg; nline; line_of_pc;
      cd_threads = Hashtbl.create 8;
      instance_counts = Hashtbl.create 4096;
      lidx_counts = Hashtbl.create 8;
      scratch_defs = Dr_util.Vec.Int_vec.create ();
      scratch_uses = Dr_util.Vec.Int_vec.create () }

  (* a copy sized to its bindings: [Hashtbl.copy] would keep the
     original's bucket array, 4096 buckets for [instance_counts] *)
  let compact_copy h =
    let c = Hashtbl.create (Hashtbl.length h) in
    Hashtbl.iter (Hashtbl.replace c) h;
    c

  (* Deep copy, safe to resume independently: the hashtables are copied,
     the per-thread cd records are re-allocated (their stacks are
     immutable lists and can be shared), the read-only cfg and line
     table are shared. *)
  let copy (t : t) : t =
    let cd_threads = Hashtbl.create (Hashtbl.length t.cd_threads) in
    Hashtbl.iter
      (fun tid (st : thread_cd) ->
        Hashtbl.replace cd_threads tid { stack = st.stack; depth = st.depth })
      t.cd_threads;
    { cfg = t.cfg; nline = t.nline; line_of_pc = t.line_of_pc;
      cd_threads;
      instance_counts = compact_copy t.instance_counts;
      lidx_counts = compact_copy t.lidx_counts;
      scratch_defs = Dr_util.Vec.Int_vec.create ();
      scratch_uses = Dr_util.Vec.Int_vec.create () }

  let bytes (t : t) =
    (* a table: header, bucket array, one 4-word cell per binding *)
    let table h =
      let st = Hashtbl.stats h in
      5 + (st.Hashtbl.num_buckets + 1) + (4 * st.Hashtbl.num_bindings)
    in
    (* a thread_cd record plus its stack: 3 words per cons, 4 per entry *)
    let cds =
      Hashtbl.fold
        (fun _ (st : thread_cd) acc -> acc + 3 + (7 * List.length st.stack))
        t.cd_threads 0
    in
    (Sys.word_size / 8)
    * (table t.cd_threads + table t.instance_counts + table t.lidx_counts + cds)

  let thread_cd t tid =
    match Hashtbl.find_opt t.cd_threads tid with
    | Some st -> st
    | None ->
      let st = { stack = []; depth = 0 } in
      Hashtbl.replace t.cd_threads tid st;
      st

  (** Derive the trace record for the [gseq]-th retired instruction and
      advance the derivation state.  Must be called exactly once per
      event, in execution order. *)
  let next (t : t) ~(gseq : int) (ev : Event.t) : Trace.record =
    let tid = ev.Event.tid and pc = ev.Event.pc in
    let cd_st = thread_cd t tid in
    (* 1. close control-dependence regions ending at this pc *)
    let rec pop_ipdoms () =
      match cd_st.stack with
      | e :: rest when e.cd_depth = cd_st.depth && e.ipdom_pc = pc ->
        cd_st.stack <- rest;
        pop_ipdoms ()
      | _ -> ()
    in
    pop_ipdoms ();
    (* 2. current control dependence *)
    let cd = match cd_st.stack with e :: _ -> e.branch_gseq | [] -> -1 in
    (* 3. def/use *)
    Dr_util.Vec.Int_vec.clear t.scratch_defs;
    Dr_util.Vec.Int_vec.clear t.scratch_uses;
    Def_use.collect ev ~defs:t.scratch_defs ~uses:t.scratch_uses;
    let defs = Dr_util.Vec.Int_vec.to_array t.scratch_defs in
    let uses = Dr_util.Vec.Int_vec.to_array t.scratch_uses in
    (* 4. flags and instance *)
    let instr = ev.Event.instr in
    let is_final_ret =
      instr = Dr_isa.Instr.Ret && ev.Event.mem_read_value = Machine.ret_sentinel
    in
    let flags =
      (match ev.Event.sys with
      | Event.Sys_spawn _ | Event.Sys_join _ | Event.Sys_lock _
      | Event.Sys_unlock _ | Event.Sys_exit _ | Event.Sys_alloc _
      | Event.Sys_wait _ | Event.Sys_signal _ ->
        Trace.flag_sync
      | Event.Sys_nondet _ -> Trace.flag_nondet
      | _ -> 0)
      lor (if is_final_ret then Trace.flag_final_ret lor Trace.flag_sync else 0)
      lor (if Dr_isa.Instr.is_branch instr then Trace.flag_branch else 0)
      lor (if ev.Event.mem_read >= 0 then Trace.flag_load else 0)
      lor if ev.Event.mem_write >= 0 then Trace.flag_store else 0
    in
    let key = (tid lsl 32) lor pc in
    let instance =
      let i = 1 + Option.value ~default:0 (Hashtbl.find_opt t.instance_counts key) in
      Hashtbl.replace t.instance_counts key i;
      i
    in
    let lidx = Option.value ~default:0 (Hashtbl.find_opt t.lidx_counts tid) in
    Hashtbl.replace t.lidx_counts tid (lidx + 1);
    let record =
      { Trace.gseq; tid; pc; instance; lidx; defs; uses; cd; flags;
        line = (if pc < t.nline then t.line_of_pc.(pc) else -1) }
    in
    (* 5. maintain CD frame depth (the record above is already built) *)
    (match instr with
    | Dr_isa.Instr.Call _ | Dr_isa.Instr.Callind _ ->
      cd_st.depth <- cd_st.depth + 1
    | Dr_isa.Instr.Ret ->
      (* close regions belonging to the returning frame *)
      let d = cd_st.depth in
      cd_st.stack <- List.filter (fun e -> e.cd_depth <> d) cd_st.stack;
      cd_st.depth <- max 0 (d - 1)
    | _ -> ());
    (* 6. push a CD region for branches *)
    if Dr_isa.Instr.is_branch instr then begin
      match Dr_cfg.Cfg.branch_region_end t.cfg ~pc with
      | Dr_cfg.Cfg.Unknown ->
        (* unresolved indirect jump: control dependence is lost (§5.1) *)
        ()
      | Dr_cfg.Cfg.To_exit ->
        cd_st.stack <-
          { branch_gseq = gseq; ipdom_pc = -1; cd_depth = cd_st.depth }
          :: cd_st.stack
      | Dr_cfg.Cfg.At p ->
        cd_st.stack <-
          { branch_gseq = gseq; ipdom_pc = p; cd_depth = cd_st.depth }
          :: cd_st.stack
    end;
    record
end

(* per-address access-order state *)
type addr_state = {
  mutable last_writer : int;  (** gseq, -1 if none *)
  mutable last_writer_tid : int;
  mutable readers : (int * int) list;  (** (gseq, tid) since last write *)
}

let collect_indirect_targets prog pinball : (int, int list) Hashtbl.t =
  let targets = Hashtbl.create 32 in
  let on_event (ev : Event.t) =
    match ev.Event.instr with
    | Dr_isa.Instr.Jind _ | Dr_isa.Instr.Callind _ ->
      let pc = ev.Event.pc in
      let old = Option.value ~default:[] (Hashtbl.find_opt targets pc) in
      if not (List.mem ev.Event.next_pc old) then
        Hashtbl.replace targets pc (ev.Event.next_pc :: old)
    | _ -> ()
  in
  let replayer = Dr_pinplay.Replayer.create prog pinball in
  ignore (Dr_pinplay.Replayer.resume ~hooks:{ Driver.on_event } replayer);
  targets

(** Collect the full region trace.  [refine] (default true) enables the
    two-pass CFG refinement of §5.1; [max_save] is the save/restore
    candidate window of §5.2.  [budget] governs resources: records spill
    to disk in segments past its memory budget, and its wall-clock
    watchdog aborts collection (a partial trace is useless) with a
    structured {!Dr_util.Budget.Resource_error}. *)
let collect ?(refine = true) ?(max_save = Prune.default_max_save) ?budget
    ?seg_records (prog : Dr_isa.Program.t) (pinball : Dr_pinplay.Pinball.t) :
    result =
  Dr_obs.Obs.with_span ~cat:"trace" "collector.collect" @@ fun sp ->
  Dr_obs.Obs.add_attr sp "refine" (Dr_obs.Obs.Bool refine);
  let indirect_tbl =
    if refine then collect_indirect_targets prog pinball else Hashtbl.create 1
  in
  let indirect_targets =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) indirect_tbl []
  in
  let cfg = Dr_cfg.Cfg.build ~indirect_targets prog in
  let cands = Prune.static_candidates ~max_save prog ~functions:(Dr_cfg.Cfg.functions cfg) in
  let prune_state = Prune.create_state cands in
  let derive = Derive.create ~cfg prog in
  let records = Segment_store.builder ?budget ?seg_records () in
  let watchdog =
    Option.bind budget (Dr_util.Budget.watchdog_of ~what:"collector.collect")
  in
  let per_thread = Hashtbl.create 8 in
  let order_edges = Dr_util.Vec.create ~dummy:(0, 0) in
  let addr_states : (int, addr_state) Hashtbl.t = Hashtbl.create 4096 in
  let thread_gseqs tid =
    match Hashtbl.find_opt per_thread tid with
    | Some v -> v
    | None ->
      let v = Dr_util.Vec.Int_vec.create () in
      Hashtbl.replace per_thread tid v;
      v
  in
  let on_event (ev : Event.t) =
    let tid = ev.Event.tid and pc = ev.Event.pc in
    let gseq = Segment_store.built_length records in
    (* cheap polled deadline: one clock read every 4096 records *)
    if gseq land 4095 = 0 then Option.iter Dr_util.Budget.check watchdog;
    (* cd / def-use / flags / instance / lidx: the shared derivation
       core (also replayed window-by-window by {!Reexec}) *)
    let record = Derive.next derive ~gseq ev in
    Segment_store.append records record;
    Dr_util.Vec.Int_vec.push (thread_gseqs tid) gseq;
    (* 5. shared-memory access order edges *)
    let addr_state a =
      match Hashtbl.find_opt addr_states a with
      | Some s -> s
      | None ->
        let s = { last_writer = -1; last_writer_tid = -1; readers = [] } in
        Hashtbl.replace addr_states a s;
        s
    in
    if ev.Event.mem_read >= 0 then begin
      let s = addr_state ev.Event.mem_read in
      if s.last_writer >= 0 && s.last_writer_tid <> tid then
        Dr_util.Vec.push order_edges (s.last_writer, gseq);
      s.readers <- (gseq, tid) :: s.readers
    end;
    if ev.Event.mem_write >= 0 then begin
      let s = addr_state ev.Event.mem_write in
      if s.last_writer >= 0 && s.last_writer_tid <> tid then
        Dr_util.Vec.push order_edges (s.last_writer, gseq);
      List.iter
        (fun (rg, rt) -> if rt <> tid then Dr_util.Vec.push order_edges (rg, gseq))
        s.readers;
      s.last_writer <- gseq;
      s.last_writer_tid <- tid;
      s.readers <- []
    end;
    (* 6. save/restore confirmation (the CD bookkeeping lives in Derive) *)
    (match ev.Event.instr with
    | Dr_isa.Instr.Call _ | Dr_isa.Instr.Callind _ -> Prune.on_call prune_state tid
    | Dr_isa.Instr.Ret -> Prune.on_ret prune_state tid
    | Dr_isa.Instr.Push reg when Hashtbl.mem cands.Prune.saves pc ->
      if Hashtbl.find cands.Prune.saves pc = reg then
        Prune.on_save prune_state ~tid ~pc ~reg ~addr:ev.Event.mem_write
          ~value:ev.Event.mem_write_value ~gseq
    | Dr_isa.Instr.Pop reg when Hashtbl.mem cands.Prune.restores pc ->
      if Hashtbl.find cands.Prune.restores pc = reg then
        Prune.on_restore prune_state ~tid ~pc ~reg ~addr:ev.Event.mem_read
          ~value:ev.Event.mem_read_value ~gseq
    | _ -> ())
  in
  let replayer = Dr_pinplay.Replayer.create prog pinball in
  let t0 = Dr_util.Timer.now () in
  ignore (Dr_pinplay.Replayer.resume ~hooks:{ Driver.on_event } replayer);
  let collect_time = Dr_util.Timer.now () -. t0 in
  let max_tid = Hashtbl.fold (fun k _ acc -> max k acc) per_thread 0 in
  let per_thread_arr =
    Array.init (max_tid + 1) (fun tid ->
        match Hashtbl.find_opt per_thread tid with
        | Some v -> Dr_util.Vec.Int_vec.to_array v
        | None -> [||])
  in
  let records = Segment_store.seal records in
  Dr_obs.Obs.add_attr sp "records" (Dr_obs.Obs.Int (Segment_store.length records));
  Dr_obs.Obs.add_attr sp "spilled_segments"
    (Dr_obs.Obs.Int (Segment_store.spilled_segments records));
  { records;
    per_thread = per_thread_arr;
    order_edges = Dr_util.Vec.to_array order_edges;
    indirect_targets;
    pairs = prune_state.Prune.pairs;
    cfg;
    collect_time }
