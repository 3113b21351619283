(* The LRC DSM cluster packaged as a {!Coherence.Backend.t}, so the
   driver, the litmus harness and the backend registry can treat it
   interchangeably with the snooping-bus cache backends. *)

let of_cluster cluster =
  Coherence.Front.backend (Cluster.front cluster)
    ~alloc:(fun ?name ?align bytes -> Cluster.alloc cluster ?name ?align bytes)
    ~run:(fun body -> Cluster.run cluster ~body)
    ~memory_checksum:(fun () -> Cluster.memory_checksum cluster)

let create ?cost ?cfg ~nprocs ~pages () =
  of_cluster (Cluster.create ?cost ?cfg ~nprocs ~pages ())
