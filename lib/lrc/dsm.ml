(* Application-facing DSM API — what the four applications (and any user
   program) code against. This is the CVM user interface: dynamically
   allocated shared memory, word accesses, locks and barriers, plus a
   [compute]/[touch_private] pair with which SPMD programs model their
   private computation under the cost model.

   Since the coherence-protocol interface was factored out, a node is the
   backend-independent {!Coherence.Node.t} handle, so the same
   application bodies run unmodified on the LRC DSM cluster or on the
   snooping-bus cache backends. *)

type node = Coherence.Node.t

let pid (n : node) = n.Coherence.Node.id
let nprocs (n : node) = n.Coherence.Node.nprocs

let malloc (n : node) ?name ?align bytes = n.Coherence.Node.malloc ?name ?align bytes

let read_float (n : node) ?site addr = n.Coherence.Node.read_word_float ?site addr

let write_float (n : node) ?site addr value =
  n.Coherence.Node.write_word_float ?site addr value

let read_int (n : node) ?site addr = n.Coherence.Node.read_word_int ?site addr
let write_int (n : node) ?site addr value = n.Coherence.Node.write_word_int ?site addr value

let lock (n : node) lock_id = n.Coherence.Node.lock lock_id
let unlock (n : node) lock_id = n.Coherence.Node.unlock lock_id

let with_lock node lock_id f =
  lock node lock_id;
  match f () with
  | result ->
      unlock node lock_id;
      result
  | exception exn ->
      unlock node lock_id;
      raise exn

let barrier (n : node) = n.Coherence.Node.barrier ()

let consolidate node =
  (* Section 6.3: global-state consolidation for programs that synchronize
     without barriers — implemented, as in CVM's garbage-collection path,
     as an internal global synchronization that runs the same detection. *)
  barrier node

let compute (n : node) ops = n.Coherence.Node.compute ops
let idle (n : node) ns = n.Coherence.Node.idle ns
let touch_private (n : node) count = n.Coherence.Node.touch_private count

(* Block/word helpers used heavily by the applications. *)

let addr_of_index base index = base + (index * Mem.Page.word_size)

let read_float_at node ?site base index = read_float node ?site (addr_of_index base index)

let write_float_at node ?site base index value =
  write_float node ?site (addr_of_index base index) value

let read_int_at node ?site base index = read_int node ?site (addr_of_index base index)

let write_int_at node ?site base index value =
  write_int node ?site (addr_of_index base index) value
