(** Architectural snapshots: the "initial state" part of a pinball.

    A snapshot captures everything needed to resume execution at a region
    boundary: memory, per-thread register files and states, the lock
    table, the heap pointer and the input cursor.  Program output is
    deliberately not captured — a replayed region produces the region's
    own output.

    Memory is held as a {!Machine} page table whose pages the snapshot
    shares copy-on-write with the machine it was taken from and with
    every machine restored from it, so capture and restore cost a table
    copy.  Pages are plain arrays and ownership lives in the machine,
    so structural equality of two snapshots still means "same
    memory". *)

open Dr_isa

type thread_snap = {
  s_tid : int;
  s_pc : int;
  s_regs : int array;
  s_state : Machine.thread_state;
  s_icount : int;
  s_wait_reacquire : int;
}

type t = {
  mem : int array array;  (** page table, shared copy-on-write *)
  mem_size : int;  (** addressable words *)
  threads : thread_snap list;
  locks : (int * int) list;  (** (address, owner) *)
  heap_ptr : int;
  input_pos : int;
  total_icount : int;
}

let capture (m : Machine.t) =
  let threads =
    Array.to_list (Machine.threads m)
    |> List.map (fun (th : Machine.thread) ->
           { s_tid = th.tid; s_pc = th.pc; s_regs = Array.copy th.regs;
             s_state = th.state; s_icount = th.icount;
             s_wait_reacquire = th.wait_reacquire })
  in
  let locks = Hashtbl.fold (fun a o acc -> (a, o) :: acc) m.locks [] in
  { mem = Machine.share_pages m;
    mem_size = Machine.mem_size m;
    threads;
    locks = List.sort compare locks;
    heap_ptr = m.heap_ptr;
    input_pos = m.input_pos;
    total_icount = m.total_icount }

(** Build a fresh machine resumed at this snapshot.  [input] must be the
    same input array the original machine ran with (the cursor is
    restored); replayed regions never consult it because reads come from
    the syscall log, so the replayer passes [[||]]. *)
let restore ?(input = [||]) (prog : Program.t) (s : t) : Machine.t =
  let m = Machine.create ~input prog in
  Machine.adopt_pages m s.mem;
  let threads =
    List.map
      (fun ts ->
        { Machine.tid = ts.s_tid; pc = ts.s_pc; regs = Array.copy ts.s_regs;
          state = ts.s_state; icount = ts.s_icount;
          wait_reacquire = ts.s_wait_reacquire })
      s.threads
  in
  List.iteri (fun i th -> m.threads.(i) <- th) threads;
  m.nthreads <- List.length threads;
  Hashtbl.reset m.locks;
  List.iter (fun (a, o) -> Hashtbl.replace m.locks a o) s.locks;
  m.heap_ptr <- s.heap_ptr;
  m.input_pos <- min s.input_pos (Array.length input);
  m.total_icount <- s.total_icount;
  m

let encode_state e = function
  | Machine.Runnable -> Dr_util.Codec.put_uint e 0
  | Machine.Blocked_lock a -> Dr_util.Codec.put_uint e 1; Dr_util.Codec.put_uint e a
  | Machine.Blocked_join t -> Dr_util.Codec.put_uint e 2; Dr_util.Codec.put_uint e t
  | Machine.Finished -> Dr_util.Codec.put_uint e 3
  | Machine.Blocked_cond a -> Dr_util.Codec.put_uint e 4; Dr_util.Codec.put_uint e a

let decode_state d =
  match Dr_util.Codec.get_uint d with
  | 0 -> Machine.Runnable
  | 1 -> Machine.Blocked_lock (Dr_util.Codec.get_uint d)
  | 2 -> Machine.Blocked_join (Dr_util.Codec.get_uint d)
  | 3 -> Machine.Finished
  | 4 -> Machine.Blocked_cond (Dr_util.Codec.get_uint d)
  | _ -> raise (Dr_util.Codec.Corrupt "thread_state")

(* [f a v] for every non-zero word, in address order; the zero page is
   skipped whole *)
let iter_nonzero f (s : t) =
  Array.iteri
    (fun p page ->
      if page != Machine.zero_page then
        let base = p lsl Machine.page_bits in
        for i = 0 to min Machine.page_words (s.mem_size - base) - 1 do
          let v = page.(i) in
          if v <> 0 then f (base + i) v
        done)
    s.mem

(** Memory is encoded sparsely as (address delta, value) pairs for
    non-zero cells — pinball size then tracks the memory footprint of the
    region, as in the paper, not the address-space size. *)
let encode e (s : t) =
  let open Dr_util.Codec in
  put_uint e s.mem_size;
  let nonzero = ref 0 in
  iter_nonzero (fun _ _ -> incr nonzero) s;
  put_uint e !nonzero;
  let last = ref 0 in
  iter_nonzero
    (fun a v ->
      put_uint e (a - !last);
      put_int e v;
      last := a)
    s;
  put_list e
    (fun e ts ->
      put_uint e ts.s_tid;
      put_uint e ts.s_pc;
      put_int_array e ts.s_regs;
      encode_state e ts.s_state;
      put_uint e ts.s_icount;
      put_int e ts.s_wait_reacquire)
    s.threads;
  put_list e
    (fun e (a, o) ->
      put_uint e a;
      put_uint e o)
    s.locks;
  put_uint e s.heap_ptr;
  put_uint e s.input_pos;
  put_uint e s.total_icount

(* Decoding allocates the page table for [mem_size] words, so
   [mem_size] cannot be validated against the (sparse) input length the
   way collection counts are; cap it instead.  16M words is far beyond
   any Program.mem_size this VM configures, and keeps a corrupt count
   from allocating a huge table. *)
let max_mem_words = 1 lsl 24

let decode d : t =
  let open Dr_util.Codec in
  let mem_size = get_uint d in
  if mem_size < 0 || mem_size > max_mem_words then
    raise (Corrupt "snapshot mem size implausible");
  (* only the pages a cell lands on are allocated *)
  let mem = Array.make (Machine.pages_for mem_size) Machine.zero_page in
  let nonzero = get_count ~min_elt_bytes:2 d "snapshot mem cells" in
  let last = ref 0 in
  for _ = 1 to nonzero do
    let a = !last + get_uint d in
    let v = get_int d in
    if a < 0 || a >= mem_size then raise (Corrupt "snapshot mem");
    let p = a lsr Machine.page_bits in
    if mem.(p) == Machine.zero_page then mem.(p) <- Array.make Machine.page_words 0;
    mem.(p).(a land Machine.page_mask) <- v;
    last := a
  done;
  let threads =
    get_list d (fun d ->
        let s_tid = get_uint d in
        let s_pc = get_uint d in
        let s_regs = get_int_array d in
        let s_state = decode_state d in
        let s_icount = get_uint d in
        let s_wait_reacquire = get_int d in
        { s_tid; s_pc; s_regs; s_state; s_icount; s_wait_reacquire })
  in
  let locks =
    get_list d (fun d ->
        let a = get_uint d in
        let o = get_uint d in
        (a, o))
  in
  let heap_ptr = get_uint d in
  let input_pos = get_uint d in
  let total_icount = get_uint d in
  { mem; mem_size; threads; locks; heap_ptr; input_pos; total_icount }
