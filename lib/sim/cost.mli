(** Cost model for the simulated platform (times in nanoseconds).

    Defaults approximate the paper's testbed: 250 MHz DEC Alphas on
    155 Mbit/s ATM. {!t} holds the two values a caller passes:
    [access_check_ns], which [Core.Driver.run] scales per run by the
    static pass's redundant-check batching, and [page_size], the shared
    segment's page size, which must be a power of two no smaller than a
    word ([Mem.Geometry.create] rejects any other; every run uses the
    default's). Every other charge is a constant, the same in every run.
    The word size is not part of the model: words are always 8 bytes
    ([Mem.Page.word_size]). *)

type t = { access_check_ns : float; page_size : int }

val default : t
(** 200 ns per access check, 4,096-byte pages. *)

(** {1 The processor and the inserted analysis call} *)

val instr_ns : float  (* one abstract application instruction *)
val proc_call_ns : float  (* the inserted analysis-routine call *)

val site_retention_ns : float
(** section 6.1's single-run site retention: keeping one access's source
    site, charged as access check *)

val notice_setup_ns : float  (* per read/write notice ("CVM mods") *)
val interval_setup_ns : float  (* per interval-structure creation *)

(** {1 Barrier-time detection at the master} *)

val vv_compare_ns : float  (* one version-vector comparison *)
val concurrent_pair_ns : float  (* per concurrent pair, beyond its comparison *)
val bitmap_word_ns : float  (* per word of a bitmap comparison *)

(** {1 The LRC DSM node} *)

val fault_ns : int  (* taking a page fault (the protocol upcall) *)

val local_fault_ns : int
(** a write fault that sends no message: a single-writer owner's, or the
    twin fault of multi-writer and home-based LRC (a tenth of
    {!fault_ns}) *)

val page_copy_word_ns : float  (* per word when servicing or twinning a page *)
val diff_word_ns : float  (* per word when making or applying a diff *)
val lock_manager_ns : int  (* the lock manager's per-request work *)

(** {1 The wire} *)

val msg_latency_ns : int  (* one-way wire and protocol stack latency *)
val loopback_ns : int  (* self-delivery: protocol stack only, no wire *)
val byte_ns : float  (* per-byte transmission time *)
val max_message_bytes : int  (* the MTU: a larger payload fragments (section 5.3) *)
val fragment_overhead_bytes : int  (* header of each fragment beyond the first *)

(** {1 The snooping bus}

    Orders of magnitude below the DSM's message costs: Golab's CC/DSM
    separation. *)

val cache_hit_ns : float  (* L1 hit, charged on every cached access *)
val bus_arb_ns : float  (* per-transaction arbitration and address phase *)
val bus_word_ns : float  (* per-word data transfer *)
val bus_mem_ns : float  (* memory latency behind the bus *)
val bus_c2c_ns : float  (* cache-to-cache supply latency *)

(** {1 Messages} *)

val fragments : bytes:int -> int
(** Number of wire fragments a payload needs under the MTU (paper section
    5.3: "current message sizes are already at system maximums"). *)

val wire_bytes : bytes:int -> int
(** Payload plus per-fragment header overhead. *)

val message_ns : bytes:int -> int
(** Wire time of a message of [bytes] payload: one latency (fragments
    pipeline) plus bandwidth over {!wire_bytes}. *)
