(* Memory-model litmus tests over the DSM.

   Classic two-processor shapes (message passing, store buffering,
   coherence) run on a chosen backend: the LRC cluster under one of its
   protocols, or a snooping bus, the sequentially consistent machine.
   Because the simulation is deterministic, a single run shows a single
   interleaving; [explore] sweeps a grid of artificial compute delays and
   collects the set of outcomes actually observable.

   The interesting assertions mirror the paper's section 6.4 discussion:
   outcomes forbidden under sequential consistency are observable under
   LRC when synchronization is missing and never on a bus, and properly
   synchronized variants admit only SC outcomes under every protocol. *)

type registers = (string * int) list

type test = {
  name : string;
  nprocs : int;
  shared_words : int;
  (* [body ~base node] runs one processor and returns its observed
     registers; its [idle] calls, like the sweep's start delays, reshape
     the interleaving. *)
  body : base:int -> Lrc.Dsm.node -> registers;
}

(* A program as an application: every processor first allocates the
   program's words (SPMD, so all of them get the same base), then runs
   the body on them. The driver sizes the shared segment from
   [memory_bytes]; Table 1's two columns do not apply. *)
let app ~name ~words ~binary body =
  let bytes = words * Mem.Page.word_size in
  {
    Apps.App.name;
    input_description = "";
    synchronization = "";
    memory_bytes = bytes;
    binary;
    body = (fun node -> body ~base:(Lrc.Dsm.malloc node ~name bytes) node);
  }

(* Detection and elision are off, so the driver never analyses the
   shape's empty binary. *)
let run ?(backend = "lrc") ?(protocol = Coherence.Config.Single_writer) ~delays test =
  if Array.length delays <> test.nprocs then invalid_arg "Litmus.run: delay per processor";
  let cfg =
    { Coherence.Config.default with Coherence.Config.backend; protocol; detect = false }
  in
  let observed = Array.make test.nprocs [] in
  let body ~base node =
    let pid = Lrc.Dsm.pid node in
    Lrc.Dsm.barrier node;
    Lrc.Dsm.idle node delays.(pid);
    observed.(pid) <- test.body ~base node;
    Lrc.Dsm.barrier node
  in
  let binary () = Instrument.Binary.make ~name:test.name () in
  let app = app ~name:test.name ~words:test.shared_words ~binary body in
  ignore (Core.Driver.run ~cfg ~app ~nprocs:test.nprocs ());
  List.concat (Array.to_list observed)

let default_grid =
  (* delays in simulated ns; enough spread to reorder fetches around
     remote writes at the default network latency *)
  [| 0.0; 60_000.0; 250_000.0; 800_000.0; 2_000_000.0 |]

let explore ?backend ?protocol ?(grid = default_grid) test =
  (* sweep every combination of per-processor start delays *)
  let rec combos = function
    | 0 -> [ [] ]
    | n -> List.concat_map (fun rest -> List.map (fun d -> d :: rest) (Array.to_list grid))
             (combos (n - 1))
  in
  combos test.nprocs
  |> List.map (fun delays -> run ?backend ?protocol ~delays:(Array.of_list delays) test)
  |> List.sort_uniq compare

let observable ?backend ?protocol ?grid test outcome =
  List.mem (List.sort compare outcome)
    (List.map (List.sort compare) (explore ?backend ?protocol ?grid test))

(* words per page at the default page size *)
let wpp = Sim.Cost.default.Sim.Cost.page_size / Mem.Page.word_size

(* ------------------------------------------------------------------ *)
(* The classic shapes. x and y are a page apart, so page granularity
   does not couple them.                                                *)

let x_word = 0
let y_word = wpp
let addr = Lrc.Dsm.addr_of_index

let message_passing =
  (* P0: x := 1; y := 1      P1: r1 := y; r2 := x
     SC forbids r1 = 1 /\ r2 = 0. *)
  {
    name = "MP";
    nprocs = 2;
    shared_words = 1024;
    body =
      (fun ~base node ->
        let open Lrc.Dsm in
        if pid node = 0 then begin
          write_int node (addr base x_word) 1;
          idle node 100_000.0;
          write_int node (addr base y_word) 1;
          []
        end
        else begin
          (* warm both locations so later reads hit cached copies *)
          ignore (read_int node (addr base y_word));
          ignore (read_int node (addr base x_word));
          idle node 1_000_000.0;
          let r1 = read_int node (addr base y_word) in
          let r2 = read_int node (addr base x_word) in
          [ ("r1", r1); ("r2", r2) ]
        end);
  }

let message_passing_synchronized =
  (* the same shape with a lock around both sides: every protocol must
     forbid the weak outcome *)
  {
    name = "MP+locks";
    nprocs = 2;
    shared_words = 1024;
    body =
      (fun ~base node ->
        let open Lrc.Dsm in
        if pid node = 0 then begin
          with_lock node 1 (fun () ->
              write_int node (addr base x_word) 1;
              idle node 100_000.0;
              write_int node (addr base y_word) 1);
          []
        end
        else begin
          idle node 500_000.0;
          with_lock node 1 (fun () ->
              let r1 = read_int node (addr base y_word) in
              let r2 = read_int node (addr base x_word) in
              [ ("r1", r1); ("r2", r2) ])
        end);
  }

let store_buffering =
  (* P0: x := 1; r1 := y     P1: y := 1; r2 := x
     SC forbids r1 = 0 /\ r2 = 0. *)
  {
    name = "SB";
    nprocs = 2;
    shared_words = 1024;
    body =
      (fun ~base node ->
        let open Lrc.Dsm in
        if pid node = 0 then begin
          (* warm y so the read does not fetch a fresh copy *)
          ignore (read_int node (addr base y_word));
          idle node 200_000.0;
          write_int node (addr base x_word) 1;
          let r1 = read_int node (addr base y_word) in
          [ ("r1", r1) ]
        end
        else begin
          ignore (read_int node (addr base x_word));
          idle node 200_000.0;
          write_int node (addr base y_word) 1;
          let r2 = read_int node (addr base x_word) in
          [ ("r2", r2) ]
        end);
  }

let coherence_rr =
  (* P0: x := 1; x := 2      P1: r1 := x; r2 := x
     Per-location coherence forbids r1 = 2 /\ r2 = 1 (reading backwards). *)
  {
    name = "CoRR";
    nprocs = 2;
    shared_words = 1024;
    body =
      (fun ~base node ->
        let open Lrc.Dsm in
        if pid node = 0 then begin
          write_int node (addr base x_word) 1;
          idle node 400_000.0;
          write_int node (addr base x_word) 2;
          []
        end
        else begin
          let r1 = read_int node (addr base x_word) in
          idle node 800_000.0;
          let r2 = read_int node (addr base x_word) in
          [ ("r1", r1); ("r2", r2) ]
        end);
  }

let message_passing_late_publish =
  (* P0 publishes y under a lock, then writes x with NO synchronization;
     P1 later takes the lock and reads y, then reads x.
     Under SC, once r1 = 1 and P1 runs after P0's x-write, r2 must be 1.
     Under LRC the x-write travels with no notice, so P1's cached copy
     stays stale: r1 = 1 /\ r2 = 0 — the Figure 5 effect in miniature. *)
  {
    name = "MP+late-publish";
    nprocs = 2;
    shared_words = 1024;
    body =
      (fun ~base node ->
        let open Lrc.Dsm in
        if pid node = 0 then begin
          with_lock node 1 (fun () -> write_int node (addr base y_word) 1);
          idle node 100_000.0;
          write_int node (addr base x_word) 1;
          []
        end
        else begin
          idle node 1_500_000.0;
          let r1 = with_lock node 1 (fun () -> read_int node (addr base y_word)) in
          let r2 = read_int node (addr base x_word) in
          [ ("r1", r1); ("r2", r2) ]
        end);
  }

let all =
  [
    message_passing;
    message_passing_synchronized;
    message_passing_late_publish;
    store_buffering;
    coherence_rr;
  ]

(* ------------------------------------------------------------------ *)
(* Protocol-stress kernels.

   Where the shapes above probe the memory model's *outcomes*, these
   kernels aim small, pointed programs at the protocol core's hot paths —
   diff caching, interval GC, write notices against already-invalid
   pages, lock handoff chains, false sharing at a barrier. Each runs with
   detection on and an access trace recorded, so a test can demand the
   online detector and the offline happens-before oracle agree exactly on
   the racy addresses. *)

type kernel = {
  k_name : string;
  k_nprocs : int;
  k_words : int;
  k_cfg : Coherence.Config.t -> Coherence.Config.t;
      (* per-kernel config adjustments (e.g. interval GC cadence) applied
         on top of the protocol under test *)
  k_body : base:int -> Lrc.Dsm.node -> unit;
  k_binary : unit -> Instrument.Binary.t;
      (* the kernel's synthetic binary: a CFG mirroring the body's shared
         accesses (same sites, same lock and barrier structure), so the
         static MHP analysis applies to kernels exactly as to the apps *)
}

type kernel_outcome = {
  detected : int list;  (* racy addresses the online detector reported *)
  oracle : int list;  (* racy addresses from the offline oracle *)
  checksum : int;
  watch_hits : Instrument.Watch.hit list;  (* [] unless watch_addrs given *)
}

let run_kernel ?(backend = "lrc") ?(protocol = Coherence.Config.Multi_writer)
    ?(watch_addrs = []) ?(elide = false) kernel =
  let cfg =
    kernel.k_cfg
      {
        Coherence.Config.default with
        Coherence.Config.backend;
        protocol;
        detect = true;
        record_trace = true;
        elide_sites = (if elide then Some [] else None);
      }
  in
  let app =
    app ~name:kernel.k_name ~words:kernel.k_words ~binary:kernel.k_binary kernel.k_body
  in
  let outcome = Core.Driver.run ~cfg ~watch_addrs ~app ~nprocs:kernel.k_nprocs () in
  {
    detected = Core.Driver.racy_addrs outcome;
    oracle = Core.Driver.oracle_addrs outcome;
    checksum = outcome.Core.Driver.mem_checksum;
    watch_hits = outcome.Core.Driver.watch_hits;
  }

(* Straight-line kernel binary: register 0 holds the kernel's one shared
   allocation, and the op list mirrors the body's shared accesses with
   the same sites, locks and barriers. Branch-free is sound here because
   pid-conditional code only *restricts* which processor runs an access —
   the SPMD pair analysis already assumes any processor may. *)
let kernel_binary name ops =
  let open Instrument.Ir in
  Instrument.Binary.make ~name
    ~procs:
      [
        proc ~name ~entry:"entry"
          [ block "entry" (malloc_shared ~dst:0 ("kernel:" ^ name) :: ops) ];
      ]
    ()

let expect node what got want =
  if got <> want then
    failwith
      (Printf.sprintf "%s: proc %d read %d, expected %d" what (Lrc.Dsm.pid node) got want)

let diff_cache_reuse =
  (* One writer dirties a run of words; after the barrier, every other
     processor faults the same page and is served the same cached diffs.
     A second page carries a deliberate unsynchronized write/read pair so
     the kernel also exercises detection, not just the serving path. *)
  {
    k_name = "diff-cache-reuse";
    k_nprocs = 4;
    k_words = 2 * wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        if pid node = 0 then
          for w = 0 to 15 do
            write_int_at node ~site:"dcr:fill" base w (100 + w)
          done;
        barrier node;
        if pid node > 0 then
          for w = 0 to 15 do
            expect node "diff-cache-reuse" (read_int_at node ~site:"dcr:verify" base w) (100 + w)
          done;
        (* the racy pair lives on the second page *)
        if pid node = 1 then write_int_at node ~site:"dcr:racy_store" base wpp 7;
        if pid node = 2 then ignore (read_int_at node ~site:"dcr:racy_load" base wpp);
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "diff-cache-reuse"
          [
            barrier;
            store ~count:16 ~site:"dcr:fill" (Reg 0);
            barrier;
            load ~count:16 ~site:"dcr:verify" (Reg 0);
            store ~offset:(wpp * Mem.Page.word_size) ~site:"dcr:racy_store" (Reg 0);
            load ~offset:(wpp * Mem.Page.word_size) ~site:"dcr:racy_load" (Reg 0);
            barrier;
          ]);
  }

let gc_interval_rerequest =
  (* Interval GC every 2 epochs: a page dirtied in epoch 1 goes invalid
     everywhere, several empty epochs let the GC validate the stale
     copies and drop the now-unreachable diffs, and only then does a late
     reader touch the page. The values must survive the collection, and
     the detector must still agree with the oracle across the GC'd
     epochs. *)
  {
    k_name = "gc-interval-rerequest";
    k_nprocs = 4;
    k_words = 2 * wpp;
    k_cfg = (fun cfg -> { cfg with Coherence.Config.gc_epochs = Some 2 });
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        if pid node = 0 then
          for w = 0 to 7 do
            write_int_at node ~site:"gcr:fill" base w (w * w)
          done;
        barrier node;
        (* empty epochs: the GC fires, validates invalid pages, then one
           barrier later reclaims the diffs *)
        barrier node;
        barrier node;
        barrier node;
        if pid node = 3 then
          for w = 0 to 7 do
            expect node "gc-interval-rerequest" (read_int_at node ~site:"gcr:verify" base w) (w * w)
          done;
        (* a racy pair after the collection: detection state must have
           survived the pruning *)
        if pid node = 0 then write_int_at node ~site:"gcr:racy_store" base wpp 1;
        if pid node = 1 then ignore (read_int_at node ~site:"gcr:racy_load" base wpp);
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "gc-interval-rerequest"
          [
            barrier;
            store ~count:8 ~site:"gcr:fill" (Reg 0);
            barrier;
            barrier;
            barrier;
            barrier;
            load ~count:8 ~site:"gcr:verify" (Reg 0);
            store ~offset:(wpp * Mem.Page.word_size) ~site:"gcr:racy_store" (Reg 0);
            load ~offset:(wpp * Mem.Page.word_size) ~site:"gcr:racy_load" (Reg 0);
            barrier;
          ]);
  }

let write_notice_invalid_page =
  (* A second write notice arrives for a page the receiver already holds
     invalid: the notice must pile onto the existing invalidation, and
     the eventual fetch must see both epochs' writes. *)
  {
    k_name = "write-notice-invalid";
    k_nprocs = 3;
    k_words = wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        (* everyone caches the page first *)
        ignore (read_int_at node ~site:"wni:warm" base (pid node));
        barrier node;
        if pid node = 0 then write_int_at node ~site:"wni:store" base 0 1;
        barrier node;
        (* p1 and p2 hold the page invalid; p0 writes it again *)
        if pid node = 0 then begin
          write_int_at node ~site:"wni:store2" base 0 2;
          write_int_at node ~site:"wni:store2" base 1 3
        end;
        barrier node;
        if pid node > 0 then begin
          expect node "write-notice-invalid" (read_int_at node ~site:"wni:verify" base 0) 2;
          expect node "write-notice-invalid" (read_int_at node ~site:"wni:verify" base 1) 3
        end;
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "write-notice-invalid"
          [
            load ~count:3 ~site:"wni:warm" (Reg 0);
            barrier;
            store ~site:"wni:store" (Reg 0);
            barrier;
            store ~count:2 ~site:"wni:store2" (Reg 0);
            barrier;
            load ~count:2 ~site:"wni:verify" (Reg 0);
            barrier;
          ]);
  }

let lock_handoff_chain =
  (* Lock ownership migrates around the ring twice with no intervening
     barrier; the updates must accumulate and the handoff edges must
     order every access (no false positives). *)
  {
    k_name = "lock-handoff-chain";
    k_nprocs = 4;
    k_words = wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        for _round = 1 to 2 do
          with_lock node 5 (fun () ->
              let v = read_int_at node ~site:"lhc:read" base 0 in
              compute node 5_000.0;
              write_int_at node ~site:"lhc:write" base 0 (v + 1))
        done;
        barrier node;
        if pid node = 0 then
          expect node "lock-handoff-chain" (read_int_at node ~site:"lhc:check" base 0) 8;
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        Instrument.Binary.make ~name:"lock-handoff-chain"
          ~procs:
            [
              proc ~name:"lock-handoff-chain" ~entry:"entry"
                [
                  block "entry" ~succs:[ "loop" ]
                    [ malloc_shared ~dst:0 "kernel:lock-handoff-chain"; barrier ];
                  block "loop" ~succs:[ "loop"; "after" ]
                    [
                      acquire 5;
                      load ~site:"lhc:read" (Reg 0);
                      store ~site:"lhc:write" (Reg 0);
                      release 5;
                    ];
                  block "after" [ barrier; load ~site:"lhc:check" (Reg 0); barrier ];
                ];
            ]
          ());
  }

let lock_chained_publish =
  (* Two locks chained: the value written under lock A is republished
     under lock B by a different processor; a third processor reads it
     under lock B only. The A->B chain through p1 must order p0's write
     before p2's read. *)
  {
    k_name = "lock-chained-publish";
    k_nprocs = 3;
    k_words = wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        (match pid node with
        | 0 -> with_lock node 1 (fun () -> write_int_at node ~site:"lcp:pub" base 0 41)
        | 1 ->
            idle node 400_000.0;
            let v = with_lock node 1 (fun () -> read_int_at node ~site:"lcp:relay_read" base 0) in
            with_lock node 2 (fun () -> write_int_at node ~site:"lcp:relay_write" base 1 (v + 1))
        | _ ->
            idle node 900_000.0;
            let v = with_lock node 2 (fun () -> read_int_at node ~site:"lcp:sub" base 1) in
            if v <> 0 then expect node "lock-chained-publish" v 42);
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "lock-chained-publish"
          [
            barrier;
            acquire 1;
            store ~site:"lcp:pub" (Reg 0);
            release 1;
            acquire 1;
            load ~site:"lcp:relay_read" (Reg 0);
            release 1;
            acquire 2;
            store ~offset:Mem.Page.word_size ~site:"lcp:relay_write" (Reg 0);
            release 2;
            acquire 2;
            load ~offset:Mem.Page.word_size ~site:"lcp:sub" (Reg 0);
            release 2;
            barrier;
          ]);
  }

let false_sharing_writers =
  (* Every processor writes its own word of one shared page between two
     barriers — the multi-writer protocol's bread and butter. Word-level
     bitmaps must classify all of it as false sharing: zero races. *)
  {
    k_name = "false-sharing-writers";
    k_nprocs = 4;
    k_words = wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        write_int_at node ~site:"fsw:mine" base (pid node) (10 * (pid node + 1));
        barrier node;
        let neighbour = (pid node + 1) mod nprocs node in
        expect node "false-sharing-writers"
          (read_int_at node ~site:"fsw:neighbour" base neighbour)
          (10 * (neighbour + 1));
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "false-sharing-writers"
          [
            barrier;
            store ~count:4 ~site:"fsw:mine" (Reg 0);
            barrier;
            load ~count:4 ~site:"fsw:neighbour" (Reg 0);
            barrier;
          ]);
  }

let true_sharing_overlap =
  (* Same shape as [false_sharing_writers], except two of the writers
     collide on one word: exactly that word must be reported. *)
  {
    k_name = "true-sharing-overlap";
    k_nprocs = 4;
    k_words = wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        let word = if pid node < 2 then 0 else pid node in
        write_int_at node ~site:"tso:store" base word (pid node + 1);
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "true-sharing-overlap"
          [ barrier; store ~count:4 ~site:"tso:store" (Reg 0); barrier ]);
  }

let multi_reader_race =
  (* One unsynchronized writer, three concurrent readers: read notices
     from every reader must reach the master and each reader forms a
     racy pair with the writer on the same address. *)
  {
    k_name = "multi-reader-race";
    k_nprocs = 4;
    k_words = wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        if pid node = 0 then write_int_at node ~site:"mrr:store" base 0 9
        else ignore (read_int_at node ~site:"mrr:load" base 0);
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "multi-reader-race"
          [
            barrier;
            store ~site:"mrr:store" (Reg 0);
            load ~site:"mrr:load" (Reg 0);
            barrier;
          ]);
  }

let partially_locked =
  (* The lock protects two of the three participants; the third touches
     the same word unsynchronized. The ordered pair must be suppressed
     and the unordered pairs reported — on exactly one address. *)
  {
    k_name = "partially-locked";
    k_nprocs = 3;
    k_words = wpp;
    k_cfg = Fun.id;
    k_body =
      (fun ~base node ->
        let open Lrc.Dsm in
        barrier node;
        if pid node < 2 then
          with_lock node 3 (fun () ->
              let v = read_int_at node ~site:"pl:locked_read" base 0 in
              write_int_at node ~site:"pl:locked_write" base 0 (v + 1))
        else write_int_at node ~site:"pl:unlocked_store" base 0 100;
        barrier node);
    k_binary =
      (fun () ->
        let open Instrument.Ir in
        kernel_binary "partially-locked"
          [
            barrier;
            acquire 3;
            load ~site:"pl:locked_read" (Reg 0);
            store ~site:"pl:locked_write" (Reg 0);
            release 3;
            store ~site:"pl:unlocked_store" (Reg 0);
            barrier;
          ]);
  }

let kernels =
  [
    diff_cache_reuse;
    gc_interval_rerequest;
    write_notice_invalid_page;
    lock_handoff_chain;
    lock_chained_publish;
    false_sharing_writers;
    true_sharing_overlap;
    multi_reader_race;
    partially_locked;
  ]
