(* Common shape of the four benchmark applications. The driver, the CLI,
   the benchmarks and the tests all consume this record. *)

type t = {
  name : string;
  input_description : string;  (* Table 1's "Input Set" column *)
  synchronization : string;  (* Table 1's "Synchronization" column *)
  memory_bytes : int;  (* size of the shared data segment *)
  binary : unit -> Instrument.Binary.t;  (* synthetic image for Table 2 *)
  body : Lrc.Dsm.node -> unit;
      (* SPMD body run by every simulated processor; raises on a failed
         self-check so broken coherence can never pass silently *)
}

let pages_needed t ~page_size = ((t.memory_bytes + page_size - 1) / page_size) + 4

(* Shared helper for the synthetic images: the application text's
   frame- and global-pointer accesses, with the usual ~3:1 load:store
   mix. The image counts its library and CVM accesses (origin alone
   eliminates them); each app adds its own computed-address structure
   on top of these ops. *)

let split n = (n * 3 / 4, n - (n * 3 / 4))

let fp_gp_ops ~name ~stack ~static_data =
  let stack_loads, stack_stores = split stack in
  let static_loads, static_stores = split static_data in
  [
    Instrument.Ir.load (Instrument.Ir.Fp 0) ~count:stack_loads ~site:(name ^ ".stack.ld");
    Instrument.Ir.store (Instrument.Ir.Fp 8) ~count:stack_stores ~site:(name ^ ".stack.st");
    Instrument.Ir.load
      (Instrument.Ir.Gp (name ^ ".data"))
      ~count:static_loads ~site:(name ^ ".static.ld");
    Instrument.Ir.store
      (Instrument.Ir.Gp (name ^ ".bss"))
      ~count:static_stores ~site:(name ^ ".static.st");
  ]
