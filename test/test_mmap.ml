(* Property tests for the WALI mmap manager (paper §3.2): under random
   sequences of mmap/munmap/mremap the region list stays disjoint,
   sorted and page-aligned, and mappings stay inside the sandbox. *)

open Wali

type op =
  | Map of int (* len *)
  | Map_fixed of int * int (* addr offset, len *)
  | Unmap of int * int (* addr offset, len *)
  | Remap of int * int (* index selector, new len *)

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Map (1 + (l mod 40000))) int;
        map2 (fun a l -> Map_fixed (a mod 30, 1 + (l mod 20000))) int int;
        map2 (fun a l -> Unmap (a mod 40, 1 + (l mod 30000))) int int;
        map2 (fun i l -> Remap (i, 1 + (l mod 50000))) int int;
      ])

let ops_gen = QCheck.Gen.(list_size (int_range 1 40) op_gen)

let print_op = function
  | Map l -> Printf.sprintf "Map %d" l
  | Map_fixed (a, l) -> Printf.sprintf "Map_fixed (%d, %d)" a l
  | Unmap (a, l) -> Printf.sprintf "Unmap (%d, %d)" a l
  | Remap (i, l) -> Printf.sprintf "Remap (%d, %d)" i l

let arb = QCheck.make ~print:(fun l -> String.concat "; " (List.map print_op l)) ops_gen

let heap_base = 1 lsl 20

(* Apply [ops], failing on the first one after which the regions are
   ill-formed or [check] does not hold. [check] also sees a page-level
   model of what should be mapped, kept from each call's result alone:
   page number -> mapped. *)
let run_ops ?(check = fun _ _ -> true) ops =
  let mem = Wasm.Rt.Memory.create ~min_pages:32 ~max_pages:512 in
  let t = Mmap_mgr.create ~heap_base in
  let model = Hashtbl.create 64 in
  let set addr len v =
    for pg = addr / 4096 to ((addr + Mmap_mgr.align_up len) / 4096) - 1 do
      if v then Hashtbl.replace model pg () else Hashtbl.remove model pg
    done
  in
  List.iter
    (fun op ->
      (match op with
      | Map len -> (
          match
            Mmap_mgr.mmap t ~mem ~addr:0 ~len ~prot:3
              ~flags:Kernel.Ktypes.(map_private lor map_anonymous)
              ~file:None
          with
          | Ok a -> set a len true
          | Error _ -> ())
      | Map_fixed (a, len) ->
          let addr = heap_base + (a * 4096) in
          (match
             Mmap_mgr.mmap t ~mem ~addr ~len ~prot:3
               ~flags:Kernel.Ktypes.(map_private lor map_anonymous lor map_fixed)
               ~file:None
           with
          | Ok a -> set a len true
          | Error _ -> ())
      | Unmap (a, len) -> (
          let addr = heap_base + (a * 4096) in
          match Mmap_mgr.munmap t ~mem ~addr ~len with
          | Ok () -> set addr len false
          | Error _ -> ())
      | Remap (i, nl) -> (
          match Mmap_mgr.regions t with
          | [] -> ()
          | rs ->
              let r = List.nth rs (abs i mod List.length rs) in
              let old_addr = r.Mmap_mgr.r_addr and old_len = r.Mmap_mgr.r_len in
              match Mmap_mgr.mremap t ~mem ~old_addr ~old_len ~new_len:nl with
              | Ok a ->
                  set old_addr old_len false;
                  set a nl true
              | Error _ -> ()));
      if not (Mmap_mgr.well_formed t) then
        QCheck.Test.fail_reportf "regions ill-formed after %s" (print_op op);
      if not (check t model) then
        QCheck.Test.fail_reportf "check failed after %s" (print_op op))
    ops;
  (* every region lies inside the grown sandbox *)
  List.for_all
    (fun r ->
      r.Mmap_mgr.r_addr >= heap_base
      && r.Mmap_mgr.r_addr + r.Mmap_mgr.r_len <= Wasm.Rt.Memory.size_bytes mem)
    (Mmap_mgr.regions t)

let prop_invariants =
  QCheck.Test.make ~name:"mmap regions disjoint/aligned/in-bounds" ~count:200
    arb (fun ops -> run_ops ops)

(* munmap splices the surviving pieces into place and keeps the byte count
   by subtraction. The regions must stay sorted and disjoint (checked by
   [run_ops]), cover exactly the pages the calls' results say are mapped,
   and [mapped_bytes] must equal their total length. *)
let prop_mapped_bytes =
  QCheck.Test.make ~name:"mmap mapped_bytes = sum of region lengths" ~count:300 arb
    (run_ops ~check:(fun t model ->
         let regions = Mmap_mgr.regions t in
         let total = List.fold_left (fun n r -> n + r.Mmap_mgr.r_len) 0 regions in
         Mmap_mgr.mapped_bytes t = total
         && total = 4096 * Hashtbl.length model
         && List.for_all
              (fun r ->
                let first = r.Mmap_mgr.r_addr / 4096 in
                let pages = List.init (r.Mmap_mgr.r_len / 4096) (( + ) first) in
                List.for_all (Hashtbl.mem model) pages)
              regions))

let test_file_mapping_writeback () =
  (* MAP_SHARED file mappings write back on msync/munmap *)
  let mem = Wasm.Rt.Memory.create ~min_pages:32 ~max_pages:128 in
  let t = Mmap_mgr.create ~heap_base in
  let file = Kernel.Bytebuf.of_string (String.make 8192 'a') in
  match
    Mmap_mgr.mmap t ~mem ~addr:0 ~len:8192 ~prot:3
      ~flags:Kernel.Ktypes.map_shared ~file:(Some (file, 0))
  with
  | Error _ -> Alcotest.fail "mmap failed"
  | Ok addr ->
      (* copy-in happened *)
      Alcotest.(check char) "copy-in" 'a' (Bytes.get mem.Wasm.Rt.Memory.data addr);
      Bytes.set mem.Wasm.Rt.Memory.data (addr + 100) 'Z';
      (match Mmap_mgr.msync t ~mem ~addr ~len:8192 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "msync");
      Alcotest.(check char) "write-back" 'Z'
        (String.get (Kernel.Bytebuf.contents file) 100);
      (* private mappings do NOT write back *)
      (match
         Mmap_mgr.mmap t ~mem ~addr:0 ~len:4096 ~prot:3
           ~flags:Kernel.Ktypes.map_private ~file:(Some (file, 0))
       with
      | Ok a2 ->
          Bytes.set mem.Wasm.Rt.Memory.data a2 'Q';
          (match Mmap_mgr.munmap t ~mem ~addr:a2 ~len:4096 with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "munmap");
          Alcotest.(check char) "private not written back" 'a'
            (String.get (Kernel.Bytebuf.contents file) 0)
      | Error _ -> Alcotest.fail "private map")

let test_partial_unmap_splits () =
  let mem = Wasm.Rt.Memory.create ~min_pages:64 ~max_pages:256 in
  let t = Mmap_mgr.create ~heap_base in
  match
    Mmap_mgr.mmap t ~mem ~addr:0 ~len:(16 * 4096) ~prot:3
      ~flags:Kernel.Ktypes.(map_private lor map_anonymous) ~file:None
  with
  | Error _ -> Alcotest.fail "mmap"
  | Ok a ->
      (* punch a hole in the middle *)
      (match Mmap_mgr.munmap t ~mem ~addr:(a + (4 * 4096)) ~len:(4 * 4096) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "munmap");
      Alcotest.(check int) "two pieces" 2 (List.length (Mmap_mgr.regions t));
      Alcotest.(check bool) "well-formed" true (Mmap_mgr.well_formed t);
      (* the hole is reusable with MAP_FIXED *)
      (match
         Mmap_mgr.mmap t ~mem ~addr:(a + (4 * 4096)) ~len:(2 * 4096) ~prot:3
           ~flags:Kernel.Ktypes.(map_private lor map_anonymous lor map_fixed)
           ~file:None
       with
      | Ok a2 -> Alcotest.(check int) "hole reused" (a + (4 * 4096)) a2
      | Error _ -> Alcotest.fail "fixed remap into hole")

let test_efault_on_bad_pointers () =
  (* dispatcher turns failed translation into -EFAULT, like the kernel *)
  let status = ref 0 in
  let binary =
    Minic.to_wasm_binary
      {|
        int main() {
          // read into a pointer far outside the sandbox limit
          int r = syscall("read", 0, 0x7f000000, 64);
          exit(-r); // EFAULT = 14
          return 0;
        }
      |}
  in
  let s, _, _ = Wali.Interface.run_program ~binary ~argv:[ "t" ] ~env:[] () in
  status := s;
  Alcotest.(check int) "EFAULT" (Kernel.Ktypes.wexit_status 14) !status

let tests =
  [
    QCheck_alcotest.to_alcotest prop_invariants;
    QCheck_alcotest.to_alcotest prop_mapped_bytes;
    Alcotest.test_case "shared file mapping write-back" `Quick test_file_mapping_writeback;
    Alcotest.test_case "partial unmap splits regions" `Quick test_partial_unmap_splits;
    Alcotest.test_case "bad guest pointers yield EFAULT" `Quick test_efault_on_bad_pointers;
  ]
