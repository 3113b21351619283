(* Where trace events go. The cluster threads one of these through every
   hook point; with no sink configured the hooks cost a single branch. *)

type t = { emit : time:int -> Event.t -> unit }

let emit t ~time event = t.emit ~time event

type recorder = { enc : Codec.encoder }

let recorder meta = { enc = Codec.encoder meta }

let sink r = { emit = (fun ~time event -> Codec.add r.enc ~time event) }

let recorded_count r = Codec.count r.enc
let contents r = Codec.contents r.enc

let tee a b = { emit = (fun ~time event -> a.emit ~time event; b.emit ~time event) }
