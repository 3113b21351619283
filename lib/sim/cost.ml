(* Cost model for the simulated platform.

   Defaults approximate the paper's testbed: 250 MHz DEC Alpha workstations
   (4 ns per simple instruction) on 155 Mbit/s ATM. The instrumentation
   constants (procedure call, access check) are calibrated so the headline
   numbers land in the paper's band: an average slowdown near 2x with
   instrumentation accounting for roughly two thirds of the overhead. *)

type t = {
  instr_ns : float;  (* cost of one abstract application instruction *)
  proc_call_ns : float;  (* overhead of the inserted analysis-routine call *)
  access_check_ns : float;  (* shared/private discrimination + bitmap set *)
  msg_latency_ns : int;  (* one-way wire + protocol stack latency *)
  loopback_ns : int;  (* self-delivery: protocol stack only, no wire *)
  byte_ns : float;  (* per-byte transmission time *)
  fault_ns : int;  (* local cost of taking a page fault (protocol upcall) *)
  page_copy_word_ns : float;  (* memcpy cost per word when servicing a page *)
  diff_word_ns : float;  (* per-word twin comparison when making a diff *)
  bitmap_word_ns : float;  (* per-word cost of a bitmap comparison *)
  vv_compare_ns : float;  (* constant-time version-vector comparison *)
  notice_setup_ns : float;  (* per read/write notice bookkeeping ("CVM mods") *)
  interval_setup_ns : float;  (* per interval-structure creation *)
  lock_manager_ns : int;  (* lock manager / barrier master per-request work *)
  max_message_bytes : int;  (* wire MTU: larger payloads fragment (section 5.3) *)
  fragment_overhead_bytes : int;  (* per-fragment header *)
  page_size : int;  (* bytes; DECstation pages were large, we default 4096 *)
  (* snooping-bus cache backends (lib/cc): a bus transaction costs
     arbitration plus per-word transfer plus the supplier's latency
     (memory or a cache-to-cache forward); these are orders of magnitude
     below the DSM message costs above, which is exactly the CC-vs-DSM
     separation the bench pipeline measures *)
  cache_hit_ns : float;  (* L1 hit, charged on every cached access *)
  bus_arb_ns : float;  (* per-transaction arbitration + address phase *)
  bus_word_ns : float;  (* per-word data transfer on the bus *)
  bus_mem_ns : float;  (* memory access latency behind the bus *)
  bus_c2c_ns : float;  (* cache-to-cache supply latency *)
}

let default =
  {
    instr_ns = 4.0;
    proc_call_ns = 120.0;
    access_check_ns = 200.0;
    msg_latency_ns = 110_000;
    loopback_ns = 2_000;
    byte_ns = 55.0 (* ~145 Mbit/s effective on 155 Mbit ATM *);
    fault_ns = 150_000;
    page_copy_word_ns = 40.0;
    diff_word_ns = 12.0;
    bitmap_word_ns = 6.0;
    vv_compare_ns = 60.0;
    notice_setup_ns = 450.0;
    interval_setup_ns = 4_000.0;
    lock_manager_ns = 12_000;
    max_message_bytes = 65_536;
    fragment_overhead_bytes = 24;
    page_size = 4096;
    cache_hit_ns = 2.0;
    bus_arb_ns = 24.0;
    bus_word_ns = 8.0;
    bus_mem_ns = 180.0;
    bus_c2c_ns = 60.0;
  }

let fragments t ~bytes = max 1 ((bytes + t.max_message_bytes - 1) / t.max_message_bytes)

let wire_bytes t ~bytes =
  (* payload plus one header per fragment beyond the first (the base
     header is part of every message's size already) *)
  bytes + ((fragments t ~bytes - 1) * t.fragment_overhead_bytes)

let message_ns t ~bytes =
  (* fragments pipeline on the wire: one latency, full wire time *)
  t.msg_latency_ns + int_of_float (t.byte_ns *. float_of_int (wire_bytes t ~bytes))
