(* Unit and property tests for the memory substrate: geometry, bitmaps,
   pages, diffs and the memory-image checksum. *)

let check = Alcotest.check

let geometry = Mem.Geometry.create ~page_size:4096 ~pages:4 ()

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)

let test_geometry_bounds () =
  check Alcotest.int "limit" (geometry.base + (4 * 4096)) (Mem.Geometry.limit geometry);
  check Alcotest.int "words per page" 512 (Mem.Geometry.words_per_page geometry);
  check Alcotest.int "last word" (Mem.Geometry.limit geometry - Mem.Page.word_size)
    (Mem.Geometry.addr_of geometry ~page:3 ~word:511)

(* the front-end's address split inverts [addr_of] on every word *)
let test_geometry_roundtrip () =
  let front =
    Coherence.Front.create ~name:"Test" ~cost:Sim.Cost.default ~cfg:Coherence.Config.default
      ~nprocs:1 ~pages:4
  in
  for page = 0 to 3 do
    for word = 0 to 511 do
      let addr = Mem.Geometry.addr_of front.Coherence.Front.geometry ~page ~word in
      check Alcotest.int "page roundtrip" page (Coherence.Front.page_of front addr);
      check Alcotest.int "word roundtrip" word (Coherence.Front.word_of front addr)
    done
  done

let test_geometry_errors () =
  Alcotest.check_raises "bad page" (Invalid_argument "Geometry.addr_of: bad page") (fun () ->
      ignore (Mem.Geometry.addr_of geometry ~page:4 ~word:0));
  Alcotest.check_raises "bad word" (Invalid_argument "Geometry.addr_of: bad word") (fun () ->
      ignore (Mem.Geometry.addr_of geometry ~page:0 ~word:512))

(* the per-access check splits addresses with shifts and masks, so a
   layout they cannot express is refused when the geometry is made *)
let test_geometry_rejects_layouts () =
  let rejected label f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  rejected "4104-byte pages" (fun () ->
      Mem.Geometry.create ~page_size:4104 ~pages:4 ());
  rejected "unaligned base" (fun () ->
      Mem.Geometry.create ~base:100 ~page_size:4096 ~pages:4 ());
  rejected "backend with 4104-byte pages" (fun () ->
      Backends.create ~cost:{ Sim.Cost.default with page_size = 4104 } ~nprocs:2 ~pages:4 ())

(* ------------------------------------------------------------------ *)
(* Bitmap                                                              *)

let test_bitmap_set_get () =
  let bitmap = Mem.Bitmap.create 100 in
  check Alcotest.bool "fresh empty" true (Mem.Bitmap.is_empty bitmap);
  Mem.Bitmap.set bitmap 0;
  Mem.Bitmap.set bitmap 63;
  Mem.Bitmap.set bitmap 99;
  check Alcotest.bool "bit 0" true (Mem.Bitmap.get bitmap 0);
  check Alcotest.bool "bit 1" false (Mem.Bitmap.get bitmap 1);
  check Alcotest.bool "bit 99" true (Mem.Bitmap.get bitmap 99);
  check Alcotest.int "cardinal" 3 (Mem.Bitmap.cardinal bitmap);
  check (Alcotest.list Alcotest.int) "indices" [ 0; 63; 99 ] (Mem.Bitmap.set_indices bitmap);
  Mem.Bitmap.clear_all bitmap;
  check Alcotest.bool "cleared" true (Mem.Bitmap.is_empty bitmap)

let test_bitmap_intersection () =
  let a = Mem.Bitmap.create 64 and b = Mem.Bitmap.create 64 in
  Mem.Bitmap.set a 3;
  Mem.Bitmap.set a 10;
  Mem.Bitmap.set b 10;
  Mem.Bitmap.set b 20;
  check Alcotest.bool "intersects" true (Mem.Bitmap.intersects a b);
  check (Alcotest.list Alcotest.int) "common word" [ 10 ] (Mem.Bitmap.inter_indices a b);
  let c = Mem.Bitmap.create 64 in
  Mem.Bitmap.set c 3;
  check Alcotest.bool "false sharing: disjoint" false (Mem.Bitmap.intersects b c)

let test_bitmap_union_copy () =
  let a = Mem.Bitmap.create 32 and b = Mem.Bitmap.create 32 in
  Mem.Bitmap.set a 1;
  Mem.Bitmap.set b 2;
  let snapshot = Mem.Bitmap.copy a in
  Mem.Bitmap.union_into ~dst:a b;
  check (Alcotest.list Alcotest.int) "union" [ 1; 2 ] (Mem.Bitmap.set_indices a);
  check (Alcotest.list Alcotest.int) "copy unaffected" [ 1 ] (Mem.Bitmap.set_indices snapshot)

let test_bitmap_length_mismatch () =
  let a = Mem.Bitmap.create 8 and b = Mem.Bitmap.create 16 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitmap: length mismatch") (fun () ->
      ignore (Mem.Bitmap.intersects a b))

let prop_bitmap_inter_naive =
  QCheck.Test.make ~name:"bitmap inter_indices equals naive intersection" ~count:100
    QCheck.(pair (list (int_bound 127)) (list (int_bound 127)))
    (fun (xs, ys) ->
      let a = Mem.Bitmap.create 128 and b = Mem.Bitmap.create 128 in
      List.iter (Mem.Bitmap.set a) xs;
      List.iter (Mem.Bitmap.set b) ys;
      let naive =
        List.sort_uniq compare (List.filter (fun x -> List.mem x ys) xs)
      in
      Mem.Bitmap.inter_indices a b = naive
      && Mem.Bitmap.intersects a b = (naive <> []))

let prop_bitmap_cardinal =
  QCheck.Test.make ~name:"bitmap cardinal equals distinct count" ~count:100
    QCheck.(list (int_bound 255))
    (fun xs ->
      let bitmap = Mem.Bitmap.create 256 in
      List.iter (Mem.Bitmap.set bitmap) xs;
      Mem.Bitmap.cardinal bitmap = List.length (List.sort_uniq compare xs))

(* ------------------------------------------------------------------ *)
(* Page                                                                *)

let test_page_roundtrip () =
  let page = Mem.Page.create ~page_size:4096 in
  Mem.Page.set_int64 page 0 42L;
  Mem.Page.set_float page 1 3.25;
  Mem.Page.set_int64 page 511 (-1L);
  check Alcotest.int64 "int64" 42L (Mem.Page.get_int64 page 0);
  check (Alcotest.float 0.0) "float" 3.25 (Mem.Page.get_float page 1);
  check Alcotest.int64 "last word" (-1L) (Mem.Page.get_int64 page 511);
  Alcotest.check_raises "out of range" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Mem.Page.get_int64 page 512));
  Alcotest.check_raises "negative" (Invalid_argument "index out of bounds") (fun () ->
      Mem.Page.set_int page (-1) 0)

let test_page_copy_blit () =
  let page = Mem.Page.create ~page_size:4096 in
  Mem.Page.set_int64 page 7 99L;
  let twin = Bytes.copy page in
  Mem.Page.set_int64 page 7 100L;
  check Alcotest.int64 "twin keeps old value" 99L (Mem.Page.get_int64 twin 7);
  Bytes.blit twin 0 page 0 (Bytes.length page);
  check Alcotest.int64 "blit restores" 99L (Mem.Page.get_int64 page 7);
  check Alcotest.bool "equal" true (Bytes.equal page twin)

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)

let test_diff_roundtrip () =
  let twin = Mem.Page.create ~page_size:4096 in
  let current = Bytes.copy twin in
  Mem.Page.set_int64 current 5 1L;
  Mem.Page.set_int64 current 100 2L;
  let diff = Mem.Diff.create ~page:3 ~twin ~current in
  check Alcotest.int "changed words" 2 (Mem.Diff.word_count diff);
  check Alcotest.int "page id" 3 (Mem.Diff.page diff);
  check (Alcotest.list Alcotest.int) "touched" [ 5; 100 ] (Mem.Diff.touched_words diff);
  let target = Bytes.copy twin in
  Mem.Diff.apply diff target;
  check Alcotest.bool "apply reconstructs" true (Bytes.equal target current)

let test_diff_empty () =
  let page = Mem.Page.create ~page_size:4096 in
  let diff = Mem.Diff.create ~page:0 ~twin:page ~current:(Bytes.copy page) in
  check Alcotest.bool "empty" true (Mem.Diff.is_empty diff)

let test_diff_to_bitmap () =
  let twin = Mem.Page.create ~page_size:4096 in
  let current = Bytes.copy twin in
  Mem.Page.set_int64 current 9 5L;
  let diff = Mem.Diff.create ~page:0 ~twin ~current in
  let bitmap = Mem.Diff.to_bitmap diff ~nbits:512 in
  check (Alcotest.list Alcotest.int) "bit set" [ 9 ] (Mem.Bitmap.set_indices bitmap)

let prop_diff_apply_reconstructs =
  QCheck.Test.make ~name:"diff(twin,current) applied to twin copy = current" ~count:100
    QCheck.(list (pair (int_bound 511) int64))
    (fun writes ->
      let twin = Mem.Page.create ~page_size:4096 in
      let current = Bytes.copy twin in
      List.iter (fun (word, value) -> Mem.Page.set_int64 current word value) writes;
      let diff = Mem.Diff.create ~page:0 ~twin ~current in
      let target = Bytes.copy twin in
      Mem.Diff.apply diff target;
      Bytes.equal target current)

(* ------------------------------------------------------------------ *)
(* Checksum                                                            *)

(* An image is the page sequence a backend hashes: [None] for a page no
   node holds a coherent copy of. The reference computes FNV-1a-64 in
   Int64 and masks it to 62 bits. *)
let fnv1a_int64 image =
  let h = ref 0xcbf29ce484222325L in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L in
  List.iter
    (function
      | None -> mix 0xFF
      | Some raw ->
          mix 0x01;
          String.iter (fun c -> mix (Char.code c)) raw)
    image;
  Int64.to_int (Int64.logand !h 0x3fffffffffffffffL)

let checksum image =
  Mem.Checksum.finish
    (List.fold_left
       (fun h -> function
         | None -> Mem.Checksum.absent h
         | Some raw -> Mem.Checksum.page h (Bytes.of_string raw))
       Mem.Checksum.init image)

let arb_image =
  let open QCheck.Gen in
  (* half the bytes have the top bit set, where a sign slip would show *)
  let byte = frequency [ (1, char); (1, char_range '\x80' '\xff') ] in
  let page = frequency [ (1, return None); (4, map Option.some (string_size ~gen:byte (0 -- 512))) ] in
  QCheck.make
    ~print:(fun image -> Printf.sprintf "%d page(s)" (List.length image))
    (list_size (0 -- 64) page)

let prop_checksum_matches_int64 =
  QCheck.Test.make ~name:"native-int checksum = Int64 FNV-1a reference" ~count:300 arb_image
    (fun image -> checksum image = fnv1a_int64 image)

let test_checksum_many_pages () =
  (* a thousand pages: all-0xFF bytes (the absent tag's value), absent
     pages, and every byte value *)
  let image =
    List.init 1000 (fun i ->
        if i mod 7 = 3 then None
        else if i mod 2 = 0 then Some (String.make 64 '\xff')
        else Some (String.init 256 (fun j -> Char.chr ((i + j) land 0xff))))
  in
  check Alcotest.int "many pages" (fnv1a_int64 image) (checksum image);
  check Alcotest.int "empty image" (fnv1a_int64 []) (checksum []);
  check Alcotest.int "one absent page" (fnv1a_int64 [ None ]) (checksum [ None ]);
  check Alcotest.bool "absent differs from a present 0xFF byte" true
    (checksum [ None ] <> checksum [ Some "\xff" ])

let test_checksum_allocates_nothing () =
  let pages = Array.init 16 (fun i -> Bytes.make 4096 (Char.chr (0x80 + i))) in
  let before = Gc.minor_words () in
  let h = Array.fold_left Mem.Checksum.page Mem.Checksum.init pages in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity (Mem.Checksum.finish h));
  if words > 64.0 then Alcotest.failf "hashing 64 KiB allocated %.0f minor words" words

let suite =
  [
    ( "mem:geometry",
      [
        Alcotest.test_case "bounds" `Quick test_geometry_bounds;
        Alcotest.test_case "roundtrip" `Quick test_geometry_roundtrip;
        Alcotest.test_case "errors" `Quick test_geometry_errors;
        Alcotest.test_case "non-power-of-two layouts rejected" `Quick
          test_geometry_rejects_layouts;
      ] );
    ( "mem:bitmap",
      [
        Alcotest.test_case "set/get/cardinal" `Quick test_bitmap_set_get;
        Alcotest.test_case "intersection" `Quick test_bitmap_intersection;
        Alcotest.test_case "union/copy" `Quick test_bitmap_union_copy;
        Alcotest.test_case "length mismatch" `Quick test_bitmap_length_mismatch;
        QCheck_alcotest.to_alcotest prop_bitmap_inter_naive;
        QCheck_alcotest.to_alcotest prop_bitmap_cardinal;
      ] );
    ( "mem:page",
      [
        Alcotest.test_case "word roundtrip" `Quick test_page_roundtrip;
        Alcotest.test_case "copy/blit" `Quick test_page_copy_blit;
      ] );
    ( "mem:diff",
      [
        Alcotest.test_case "roundtrip" `Quick test_diff_roundtrip;
        Alcotest.test_case "empty" `Quick test_diff_empty;
        Alcotest.test_case "to_bitmap" `Quick test_diff_to_bitmap;
        QCheck_alcotest.to_alcotest prop_diff_apply_reconstructs;
      ] );
    ( "mem:checksum",
      [
        QCheck_alcotest.to_alcotest prop_checksum_matches_int64;
        Alcotest.test_case "many pages" `Quick test_checksum_many_pages;
        Alcotest.test_case "allocates nothing" `Quick test_checksum_allocates_nothing;
      ] );
  ]
