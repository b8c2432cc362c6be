(** Scheduling drivers for the virtual machine.

    A driver repeatedly picks a runnable thread and steps it.  Policies:

    - {!Round_robin}: fixed quantum, deterministic given the program.
    - {!Seeded}: pseudo-random thread and quantum from a seed — the
      "native" non-deterministic schedule; different seeds give the
      run-to-run variation that makes cyclic debugging hard (paper §1).
    - {!Scripted}: replay of a recorded schedule (RLE list of
      [(tid, retired-instruction count)] slices); divergence raises.
    - {!Custom}: externally controlled — used by Maple's active scheduler
      and by the interactive debugger. *)

type policy =
  | Round_robin of { quantum : int }
  | Seeded of { seed : int; max_quantum : int }
  | Scripted of (int * int) array
  | Custom of (Machine.t -> last:int -> int option)

type stop_reason =
  | Terminated of Machine.outcome  (** exited / assert / fault *)
  | Deadlock  (** live threads, none runnable *)
  | Max_steps
  | Schedule_end  (** scripted schedule exhausted *)
  | Breakpoint of { tid : int; pc : int }
  | Stop_requested  (** [stop_when] hook fired *)

exception Replay_divergence of string

type hooks = { on_event : Event.t -> unit }

let no_hooks = { on_event = (fun _ -> ()) }

(* Pick the next runnable tid at or after [start mod n], wrapping. *)
let next_runnable m start =
  let n = Machine.num_threads m in
  let rec go i k =
    if k = 0 then None
    else if (Machine.thread m i).Machine.state = Machine.Runnable then Some i
    else go ((i + 1) mod n) (k - 1)
  in
  go (((start mod n) + n) mod n) n

(** Where a scripted schedule stands: entry [pos] has [left] slots still
    to run, or, when [left] is 0, has not started.  A replay checkpoint
    records it, so a resumed replay continues the schedule without
    re-walking it. *)
type cursor = { mutable pos : int; mutable left : int }

(* A picker returns the tid to step next, or None for "no runnable thread"
   (deadlock, or schedule exhausted for scripted picks).  A scripted
   picker advances [cursor]. *)
let make_picker policy cursor =
  match policy with
  | Round_robin { quantum } ->
    let left = ref quantum in
    fun m ~last ->
      let start = if !left <= 0 then last + 1 else last in
      let chosen = next_runnable m start in
      (match chosen with
      | Some t ->
        if t <> last || !left <= 0 then left := quantum;
        decr left
      | None -> ());
      chosen
  | Seeded { seed; max_quantum } ->
    let rng = Random.State.make [| seed; 0x5eed |] in
    let left = ref 0 and cur = ref (-1) in
    fun m ~last ->
      ignore last;
      let cur_ok =
        !cur >= 0 && !left > 0
        && !cur < Machine.num_threads m
        && (Machine.thread m !cur).Machine.state = Machine.Runnable
      in
      if cur_ok then begin
        decr left;
        Some !cur
      end
      else
        let n = Machine.num_threads m in
        (match next_runnable m (Random.State.int rng n) with
        | None -> None
        | Some t ->
          cur := t;
          left := 1 + Random.State.int rng (max max_quantum 1);
          Some t)
  | Scripted sched ->
    let c = cursor in
    fun _m ~last ->
      ignore last;
      (* advance past empty slices *)
      while c.left = 0 && c.pos < Array.length sched do
        let _, cnt = sched.(c.pos) in
        if cnt = 0 then c.pos <- c.pos + 1 else c.left <- cnt
      done;
      if c.left = 0 then None
      else begin
        let tid, _ = sched.(c.pos) in
        c.left <- c.left - 1;
        if c.left = 0 then c.pos <- c.pos + 1;
        Some tid
      end
  | Custom f -> f

(** A resumable scheduling session: the picker's state (round-robin
    rotation, PRNG, script cursor) persists across {!resume} calls, so a
    debugger can stop at a breakpoint and continue as if uninterrupted. *)
type session = {
  m : Machine.t;
  nondet : Machine.nondet;
  pick : Machine.t -> last:int -> int option;
  scripted : bool;
  script : cursor;  (** scripted policies only *)
  mutable last : int;
  mutable pending : int option;
      (** the tid picked when a breakpoint stopped the session: it has
          consumed its schedule slot but not yet stepped, so the next
          {!resume} steps it before asking the picker again *)
}

(** [at] starts a scripted policy at a {!cursor} position other than
    the schedule's start. *)
let session ?(nondet : Machine.nondet option) ?(at = { pos = 0; left = 0 })
    (m : Machine.t) (policy : policy) : session =
  let nondet = match nondet with Some f -> f | None -> Machine.native_nondet m in
  let scripted = match policy with Scripted _ -> true | _ -> false in
  let script = { pos = at.pos; left = at.left } in
  { m; nondet; pick = make_picker policy script; scripted; script; last = 0;
    pending = None }

(** The scripted-schedule position of the next instruction to run.  A
    [pending] tid has consumed its slot without stepping, so the slot is
    given back: a session started {!session} [~at] this cursor runs the
    same schedule as this one. *)
let cursor (s : session) : cursor =
  let c = s.script in
  match s.pending with
  | None -> { pos = c.pos; left = c.left }
  | Some _ when c.left = 0 -> { pos = c.pos - 1; left = 1 }
  | Some _ -> { pos = c.pos; left = c.left + 1 }

(** Run the session until a stop condition.

    [break_at] is consulted {e before} executing an instruction
    (breakpoint semantics) and a breakpoint stop keeps the picked thread
    for the next call, so stopping never costs a schedule slot, quantum
    or PRNG draw; [stop_when] is consulted on the event {e
    after} each retired instruction.  [max_steps] bounds retired
    instructions across all threads.  For scripted policies, scheduling a
    blocked thread or a bad tid raises {!Replay_divergence}: a correct
    pinball never does this. *)
let resume ?(hooks = no_hooks) ?(max_steps = max_int)
    ?(break_at : (tid:int -> pc:int -> bool) option)
    ?(stop_when : (Event.t -> bool) option) (s : session) : stop_reason =
  let { m; nondet; pick; scripted; _ } = s in
  let last = ref s.last in
  let steps = ref 0 in
  let result = ref None in
  while !result = None do
    if Machine.outcome m <> Machine.Running then
      result := Some (Terminated (Machine.outcome m))
    else if !steps >= max_steps then result := Some Max_steps
    else
      let next =
        match s.pending with
        | Some tid ->
          s.pending <- None;
          Some tid
        | None -> pick m ~last:!last
      in
      match next with
      | None ->
        if scripted then result := Some Schedule_end
        else if Machine.all_finished m then
          (* every thread returned; no explicit halt was executed *)
          result := Some (Terminated (Machine.Exited 0))
        else result := Some Deadlock
      | Some tid ->
        if tid < 0 || tid >= Machine.num_threads m then
          if scripted then
            raise (Replay_divergence (Printf.sprintf "schedule names bad tid %d" tid))
          else invalid_arg "Driver.run: picker returned bad tid"
        else begin
          let th = Machine.thread m tid in
          if th.Machine.state <> Machine.Runnable then begin
            if scripted then
              raise
                (Replay_divergence
                   (Printf.sprintf "scheduled tid %d not runnable at pc %d" tid
                      th.Machine.pc))
            else result := Some Deadlock
          end
          else begin
            match break_at with
            | Some f when f ~tid ~pc:th.Machine.pc ->
              s.pending <- Some tid;
              result := Some (Breakpoint { tid; pc = th.Machine.pc })
            | _ ->
              let ev = Machine.step m ~tid ~nondet in
              last := tid;
              if ev.Event.retired then begin
                incr steps;
                hooks.on_event ev;
                (match stop_when with
                | Some f when f ev -> result := Some Stop_requested
                | _ -> ());
                match Machine.outcome m with
                | Machine.Running -> ()
                | o -> if !result = None then result := Some (Terminated o)
              end
              else if scripted then
                raise
                  (Replay_divergence
                     (Printf.sprintf "scheduled tid %d blocked at pc %d" tid
                        th.Machine.pc))
          end
        end
  done;
  s.last <- !last;
  Option.get !result

(** One-shot convenience: create a session and run it to the first stop. *)
let run ?nondet ?hooks ?max_steps ?break_at ?stop_when (m : Machine.t)
    (policy : policy) : stop_reason =
  resume ?hooks ?max_steps ?break_at ?stop_when (session ?nondet m policy)

let pp_stop_reason fmt = function
  | Terminated o -> Format.fprintf fmt "terminated: %a" Machine.pp_outcome o
  | Deadlock -> Format.pp_print_string fmt "deadlock"
  | Max_steps -> Format.pp_print_string fmt "max steps reached"
  | Schedule_end -> Format.pp_print_string fmt "schedule exhausted"
  | Breakpoint { tid; pc } -> Format.fprintf fmt "breakpoint [tid=%d pc=%d]" tid pc
  | Stop_requested -> Format.pp_print_string fmt "stop requested"
