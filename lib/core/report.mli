(** Plain-text rendering of the experiment results, shaped like the
    paper's tables, with the paper's own numbers quoted under each one. *)

val table1 : Format.formatter -> Experiments.table1_row list -> unit
val table2 : Format.formatter -> Experiments.table2_row list -> unit
val table3 : Format.formatter -> Experiments.table3_row list -> unit
val figure3 : Format.formatter -> Experiments.figure3_row list -> unit
val figure4 : Format.formatter -> Experiments.figure4_row list -> unit
val figure5 : Format.formatter -> Experiments.figure5_result list -> unit
val ablation : Format.formatter -> Experiments.ablation_row list -> unit
val retention : Format.formatter -> Experiments.retention_row list -> unit
val faults : Format.formatter -> Experiments.fault_row list -> unit
val protocols : Format.formatter -> Experiments.protocol_row list -> unit

val analysis :
  Format.formatter ->
  name:string ->
  Instrument.Static_analysis.result ->
  warnings:Instrument.Mhp.warning list ->
  unit
(** One application's static-pass result: classification, check batching
    and the {!Instrument.Mhp.warnings} lockset warnings (the
    `cvm_race analyze` rendering). *)

val races : ?symtab:Mem.Symtab.t -> Format.formatter -> Proto.Race.t list -> unit
(** Race reports, resolved through the symbol table when given. *)
