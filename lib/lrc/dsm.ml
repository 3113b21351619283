(* Application-facing DSM API — what the four applications (and any user
   program) code against. This is the CVM user interface: dynamically
   allocated shared memory, word accesses, locks and barriers, plus a
   [compute]/[touch_private] pair with which SPMD programs model their
   private computation under the cost model.

   A node is the processor handle {!Coherence.Front.handle}: the
   processor's front-end state and its machine's five operations. The
   access path and the front-end's part of every synchronization are
   here, once for every machine, so the same application bodies run
   unmodified on the LRC DSM cluster or on the snooping-bus cache
   backends. *)

module Front = Coherence.Front

type node = Front.handle

let pid (n : node) = n.proc.Front.id
let nprocs (n : node) = n.front.Front.nprocs

let malloc (n : node) ?name ?align bytes = Front.malloc n.front n.proc ?name ?align bytes

(* The front-end checks, accounts and instruments the access and names
   its page; the machine makes that page coherent (an LRC fault, a cache
   fill) and returns it. A bad address fails in the front-end, with the
   machine's name, before any accounting. *)
let[@inline] readable (n : node) ?site addr =
  let site = match site with Some site -> site | None -> "?" in
  n.machine.readable ~addr ~page:(Front.read_note n.front n.proc ~site addr)

let[@inline] writable (n : node) ?site addr =
  let site = match site with Some site -> site | None -> "?" in
  n.machine.writable ~addr ~page:(Front.write_note n.front n.proc ~site addr)

(* The accessors, their [_at] helpers and the private-work charges
   inline into the application (the build is not [-opaque]), so a float
   read or written, or a computed charge, stays unboxed. [?site] has no
   default: a defaulted optional argument splits a function into an
   inlined wrapper and an out-of-line body that returns its float boxed. *)
let[@inline] read_float (n : node) ?site addr =
  let page = readable n ?site addr in
  Mem.Page.get_float page (Front.word_of n.front addr)

let[@inline] write_float (n : node) ?site addr value =
  let page = writable n ?site addr in
  Mem.Page.set_float page (Front.word_of n.front addr) value

let[@inline] read_int (n : node) ?site addr =
  let page = readable n ?site addr in
  Mem.Page.get_int page (Front.word_of n.front addr)

let[@inline] write_int (n : node) ?site addr value =
  let page = writable n ?site addr in
  Mem.Page.set_int page (Front.word_of n.front addr) value

(* Each synchronization settles the processor's time debt first; the
   machine's part follows. *)
let lock (n : node) lock_id =
  Front.flush_time n.front n.proc;
  let stats = n.front.Front.stats in
  stats.Sim.Stats.lock_acquires <- stats.Sim.Stats.lock_acquires + 1;
  n.machine.lock lock_id

let unlock (n : node) lock_id =
  Front.flush_time n.front n.proc;
  n.machine.unlock lock_id

let with_lock node lock_id f =
  lock node lock_id;
  match f () with
  | result ->
      unlock node lock_id;
      result
  | exception exn ->
      unlock node lock_id;
      raise exn

let barrier (n : node) =
  Front.flush_time n.front n.proc;
  Front.enter_barrier n.front n.proc;
  n.machine.barrier ()

let consolidate node =
  (* Section 6.3: global-state consolidation for programs that synchronize
     without barriers — implemented, as in CVM's garbage-collection path,
     as an internal global synchronization that runs the same detection. *)
  barrier node

let[@inline] compute (n : node) ops = Front.compute n.proc ops
let idle (n : node) ns = Front.idle n.front n.proc ns
let[@inline] touch_private (n : node) count = Front.touch_private n.front n.proc count

(* Block/word helpers used heavily by the applications. *)

let[@inline] addr_of_index base index = base + (index * Mem.Page.word_size)

let[@inline] read_float_at node ?site base index =
  read_float node ?site (addr_of_index base index)

let[@inline] write_float_at node ?site base index value =
  write_float node ?site (addr_of_index base index) value

let[@inline] read_int_at node ?site base index = read_int node ?site (addr_of_index base index)

let[@inline] write_int_at node ?site base index value =
  write_int node ?site (addr_of_index base index) value
