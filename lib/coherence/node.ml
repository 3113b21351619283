(* The backend-independent processor handle the applications program
   against.

   Every coherence backend (the LRC DSM cluster, the snooping-bus cache
   machines) presents one of these per simulated processor: a record of
   closures over the backend's own per-processor state. Record fields
   carry the optional arguments directly, so call sites keep the exact
   shape they had when this surface was a concrete module — see
   {!Lrc.Dsm} for the friendlier wrappers most programs use. *)

type t = {
  id : int;
  nprocs : int;
  malloc : ?name:string -> ?align:int -> int -> int;
      (* bump allocation over the shared segment; SPMD programs calling at
         the same program points get identical addresses on every
         processor *)
  read_word_int : ?site:string -> int -> int;
  write_word_int : ?site:string -> int -> int -> unit;
  read_word_float : ?site:string -> int -> float;
  write_word_float : ?site:string -> int -> float -> unit;
  lock : int -> unit;
  unlock : int -> unit;
  barrier : unit -> unit;
  compute : float -> unit;  (* accrue [ops] instructions of private work *)
  idle : float -> unit;  (* advance simulated time immediately *)
  touch_private : int -> unit;
      (* private accesses that survived static elimination: pay the
         analysis-routine cost, never set a bitmap bit *)
}
