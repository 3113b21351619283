(** Cost model for the simulated platform (times in nanoseconds).

    Defaults approximate the paper's testbed: 250 MHz DEC Alphas on
    155 Mbit/s ATM. Every field can be overridden to run what-if
    calibrations; the benchmark harness uses the defaults. [page_size]
    must be a power of two no smaller than a word ([Mem.Geometry.create]
    rejects any other). The word size is not part of the model: words
    are always 8 bytes ([Mem.Page.word_size]). *)

type t = {
  instr_ns : float;
  proc_call_ns : float;
  access_check_ns : float;
  msg_latency_ns : int;
  loopback_ns : int;  (** self-delivery delay: protocol stack only, no wire *)
  byte_ns : float;
  fault_ns : int;
  page_copy_word_ns : float;
  diff_word_ns : float;
  bitmap_word_ns : float;
  vv_compare_ns : float;
  notice_setup_ns : float;
  interval_setup_ns : float;
  lock_manager_ns : int;
  max_message_bytes : int;
  fragment_overhead_bytes : int;
  page_size : int;
  cache_hit_ns : float;
      (** snooping-bus backends: L1 hit, charged on every cached access *)
  bus_arb_ns : float;  (** per-transaction arbitration + address phase *)
  bus_word_ns : float;  (** per-word data transfer on the bus *)
  bus_mem_ns : float;  (** memory access latency behind the bus *)
  bus_c2c_ns : float;  (** cache-to-cache supply latency *)
}

val default : t

val fragments : t -> bytes:int -> int
(** Number of wire fragments a payload needs under the MTU (paper section
    5.3: "current message sizes are already at system maximums"). *)

val wire_bytes : t -> bytes:int -> int
(** Payload plus per-fragment header overhead. *)

val message_ns : t -> bytes:int -> int
(** Wire time of a message of [bytes] payload: one latency (fragments
    pipeline) plus bandwidth over {!wire_bytes}. *)
