(* Cost model for the simulated platform.

   Defaults approximate the paper's testbed: 250 MHz DEC Alpha workstations
   (4 ns per simple instruction) on 155 Mbit/s ATM. The instrumentation
   constants (procedure call, access check) are calibrated so the headline
   numbers land in the paper's band: an average slowdown near 2x with
   instrumentation accounting for roughly two thirds of the overhead.

   Two values are a record a caller passes: the access check, which
   Core.Driver.run scales per run by the static pass's batching, and the
   page size, which perfbench's copy of the driver also reads from the
   record (every run uses the default's). Every other charge is a
   constant. *)

type t = {
  access_check_ns : float;  (* shared/private discrimination + bitmap set *)
  page_size : int;  (* bytes; DECstation pages were large, we default 4096 *)
}

let default = { access_check_ns = 200.0; page_size = 4096 }

(* the processor and the inserted analysis call *)
let instr_ns = 4.0 (* one abstract application instruction *)
let proc_call_ns = 120.0 (* overhead of the inserted analysis-routine call *)
let site_retention_ns = 60.0 (* section 6.1: keeping an access's source site *)
let notice_setup_ns = 450.0 (* per read/write notice bookkeeping ("CVM mods") *)
let interval_setup_ns = 4_000.0 (* per interval-structure creation *)

(* barrier-time detection at the master *)
let vv_compare_ns = 60.0 (* constant-time version-vector comparison *)
let concurrent_pair_ns = 200.0 (* per concurrent interval pair, beyond its comparison *)
let bitmap_word_ns = 6.0 (* per-word cost of a bitmap comparison *)

(* the LRC DSM node *)
let fault_ns = 150_000 (* local cost of taking a page fault (protocol upcall) *)
let local_fault_ns = fault_ns / 10 (* a write fault that sends no message *)
let page_copy_word_ns = 40.0 (* memcpy cost per word when servicing a page *)
let diff_word_ns = 12.0 (* per-word twin comparison when making a diff *)
let lock_manager_ns = 12_000 (* lock manager / barrier master per-request work *)

(* the wire *)
let msg_latency_ns = 110_000 (* one-way wire + protocol stack latency *)
let loopback_ns = 2_000 (* self-delivery: protocol stack only, no wire *)
let byte_ns = 55.0 (* ~145 Mbit/s effective on 155 Mbit ATM *)
let max_message_bytes = 65_536 (* wire MTU: larger payloads fragment (section 5.3) *)
let fragment_overhead_bytes = 24 (* per-fragment header *)

(* the snooping bus (lib/cc): orders of magnitude below the messages
   above, the CC-vs-DSM separation the bench pipeline measures *)
let cache_hit_ns = 2.0 (* L1 hit, charged on every cached access *)
let bus_arb_ns = 24.0 (* per-transaction arbitration + address phase *)
let bus_word_ns = 8.0 (* per-word data transfer on the bus *)
let bus_mem_ns = 180.0 (* memory access latency behind the bus *)
let bus_c2c_ns = 60.0 (* cache-to-cache supply latency *)

let fragments ~bytes = max 1 ((bytes + max_message_bytes - 1) / max_message_bytes)

let wire_bytes ~bytes =
  (* payload plus one header per fragment beyond the first (the base
     header is part of every message's size already) *)
  bytes + ((fragments ~bytes - 1) * fragment_overhead_bytes)

let message_ns ~bytes =
  (* fragments pipeline on the wire: one latency, full wire time *)
  msg_latency_ns + int_of_float (byte_ns *. float_of_int (wire_bytes ~bytes))
