(* Synthetic executable images — the objects our ATOM analogue analyzes.

   ATOM classified every load and store in a real Alpha binary by its
   addressing mode and origin. We cannot rewrite native binaries from
   OCaml, so each application instead carries a synthetic image with the
   same structure the real classifier consumed: counts of the accesses
   in code we never analyze beyond its origin (shared libraries, the CVM
   runtime itself), and application-text [procs] — register-transfer
   CFGs ({!Ir}) whose computed addresses the data-flow analysis in
   {!Dataflow} classifies. Whether a computed access is private is
   *derived* by that analysis; the image carries no oracle bit. *)

type kind = Load | Store

type t = {
  name : string;
  library : int;  (* loads and stores in libc, libm, ... *)
  cvm : int;  (* loads and stores in the DSM library linked into the binary *)
  procs : Ir.proc list;
}

let make ~name ?(library = 0) ?(cvm = 0) ?(procs = []) () =
  List.iter Ir.validate procs;
  { name; library; cvm; procs }
