(* Helpers and the caller claim task indices from one atomic counter and
   write each result into its own slot; joining the helpers publishes
   their slots to the caller. Results are read back in input order,
   which is what makes a parallel sweep render identically to a
   sequential one. *)

let max_jobs = 128

let default_jobs () = min max_jobs (max 1 (Domain.recommended_domain_count ()))

let map ~jobs f xs =
  if jobs < 1 || jobs > max_jobs then
    invalid_arg (Printf.sprintf "Parallel.map: jobs must be in 1..%d, got %d" max_jobs jobs);
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match f tasks.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let helpers = List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false)
