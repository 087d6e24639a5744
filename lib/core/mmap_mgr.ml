(** The WALI memory-mapping manager (paper §3.2).

    All mappings live inside the process's Wasm linear memory between
    [heap_base] and the memory's declared maximum; the manager grows the
    Wasm memory on demand (MAP_FIXED-style placement into the sandbox) and
    fails with ENOMEM past the self-imposed limit. File-backed mappings
    are materialized by copy-in; MAP_SHARED file mappings write back on
    msync/munmap. Regions are disjoint and 4096-aligned by construction —
    a property the test suite checks with qcheck. *)

open Wasm

let page = 4096

let align_up n = (n + page - 1) land lnot (page - 1)

type backing =
  | Anon
  | File of {
      fb_buf : Kernel.Bytebuf.t; (* the file's contents *)
      fb_off : int; (* file offset of the mapping *)
      fb_shared : bool;
    }

type region = {
  r_addr : int;
  r_len : int; (* multiple of page *)
  mutable r_prot : int;
  r_backing : backing;
}

type t = {
  mutable regions : region list; (* sorted by address, disjoint *)
  base : int; (* lowest mappable address *)
  mutable mapped_bytes : int;
}

let create ~heap_base = { regions = []; base = align_up heap_base; mapped_bytes = 0 }

let regions t = t.regions
let mapped_bytes t = t.mapped_bytes

let limit_of (mem : Rt.Memory.t) = mem.Rt.Memory.max_pages * Types.page_size

(* Grow the Wasm memory so that [addr+len) is addressable. *)
let ensure_mem (mem : Rt.Memory.t) addr len : bool =
  let needed = addr + len in
  if needed <= Rt.Memory.size_bytes mem then true
  else begin
    let extra = needed - Rt.Memory.size_bytes mem in
    let pages = (extra + Types.page_size - 1) / Types.page_size in
    Rt.Memory.grow mem pages >= 0
  end

(* First gap of size >= len within [base, limit). *)
let find_gap t ~(mem : Rt.Memory.t) len : int option =
  let limit = limit_of mem in
  let rec go prev_end = function
    | [] -> if prev_end + len <= limit then Some prev_end else None
    | r :: rest ->
        if r.r_addr - prev_end >= len then Some prev_end
        else go (r.r_addr + r.r_len) rest
  in
  go t.base t.regions

let insert t r =
  let rec go = function
    | [] -> [ r ]
    | x :: rest -> if r.r_addr < x.r_addr then r :: x :: rest else x :: go rest
  in
  t.regions <- go t.regions;
  t.mapped_bytes <- t.mapped_bytes + r.r_len

let region_overlaps ~addr ~len r =
  addr < r.r_addr + r.r_len && r.r_addr < addr + len

(** Whether [addr, addr + len) overlaps a mapping. *)
let overlaps t ~addr ~len = List.exists (region_overlaps ~addr ~len) t.regions

(* Write a shared file mapping's pages back to the file. *)
let writeback (mem : Rt.Memory.t) (r : region) =
  match r.r_backing with
  | File { fb_buf; fb_off; fb_shared = true } ->
      Kernel.Bytebuf.pwrite fb_buf ~off:fb_off ~src:mem.Rt.Memory.data
        ~src_off:r.r_addr ~len:r.r_len
  | _ -> ()

(* Remove [addr,addr+len) from region [r], yielding the surviving
   pieces in address order. *)
let carve (mem : Rt.Memory.t) ~addr ~len r : region list =
  writeback mem r;
  let stop = addr + len and r_end = r.r_addr + r.r_len in
  let head = if r.r_addr < addr then [ { r with r_len = addr - r.r_addr } ] else [] in
  if stop >= r_end then head
  else
    let moved = function File f -> File { f with fb_off = f.fb_off + stop - r.r_addr } | b -> b in
    head @ [ { r with r_addr = stop; r_len = r_end - stop; r_backing = moved r.r_backing } ]

(* [regions] is sorted, so the regions [addr,addr+len) overlaps are one
   run: splice their surviving pieces in where the run was. *)
let do_unmap t (mem : Rt.Memory.t) ~addr ~len =
  let rec go = function
    | r :: rest when r.r_addr + r.r_len <= addr -> r :: go rest
    | r :: rest when r.r_addr < addr + len ->
        let pieces = carve mem ~addr ~len r in
        let kept = List.fold_left (fun n p -> n + p.r_len) 0 pieces in
        t.mapped_bytes <- t.mapped_bytes - (r.r_len - kept);
        pieces @ go rest
    | rest -> rest
  in
  t.regions <- go t.regions

(** mmap. [file] is the backing regular-file buffer for non-anonymous
    maps. Returns the mapped address. *)
let mmap t ~(mem : Rt.Memory.t) ~addr ~len ~prot ~flags
    ~(file : (Kernel.Bytebuf.t * int) option) : (int, Kernel.Errno.t) result =
  if len <= 0 then Error Kernel.Errno.EINVAL
  else begin
    let len = align_up len in
    let fixed = flags land Kernel.Ktypes.map_fixed <> 0 in
    let place =
      if fixed then
        if addr land (page - 1) <> 0 then Error Kernel.Errno.EINVAL
        else if addr < t.base then Error Kernel.Errno.EINVAL
        else begin
          (* MAP_FIXED replaces existing mappings. *)
          do_unmap t mem ~addr ~len;
          Ok addr
        end
      else
        match find_gap t ~mem len with
        | Some a -> Ok a
        | None -> Error Kernel.Errno.ENOMEM
    in
    match place with
    | Error _ as e -> e
    | Ok a ->
        if not (ensure_mem mem a len) then Error Kernel.Errno.ENOMEM
        else begin
          let backing =
            match file with
            | None -> Anon
            | Some (buf, off) ->
                File
                  {
                    fb_buf = buf;
                    fb_off = off;
                    fb_shared = flags land Kernel.Ktypes.map_shared <> 0;
                  }
          in
          (* Initialize contents: zero for anon, copy-in for file. *)
          Bytes.fill mem.Rt.Memory.data a len '\000';
          (match file with
          | Some (buf, off) ->
              ignore
                (Kernel.Bytebuf.pread buf ~off ~dst:mem.Rt.Memory.data
                   ~dst_off:a ~len)
          | None -> ());
          insert t { r_addr = a; r_len = len; r_prot = prot; r_backing = backing };
          Ok a
        end
  end

let munmap t ~(mem : Rt.Memory.t) ~addr ~len : (unit, Kernel.Errno.t) result =
  if addr land (page - 1) <> 0 || len <= 0 then Error Kernel.Errno.EINVAL
  else begin
    do_unmap t mem ~addr ~len:(align_up len);
    Ok ()
  end

let mprotect t ~addr ~len ~prot : (unit, Kernel.Errno.t) result =
  if addr land (page - 1) <> 0 || len < 0 then Error Kernel.Errno.EINVAL
  else begin
    List.iter
      (fun r -> if region_overlaps ~addr ~len:(align_up len) r then r.r_prot <- prot)
      t.regions;
    Ok ()
  end

let msync t ~(mem : Rt.Memory.t) ~addr ~len : (unit, Kernel.Errno.t) result =
  List.iter
    (fun r -> if region_overlaps ~addr ~len:(align_up (max len 1)) r then writeback mem r)
    t.regions;
  Ok ()

let mremap t ~(mem : Rt.Memory.t) ~old_addr ~old_len ~new_len :
    (int, Kernel.Errno.t) result =
  let old_len = align_up old_len and new_len = align_up new_len in
  match List.find_opt (fun r -> r.r_addr = old_addr) t.regions with
  | None -> Error Kernel.Errno.EFAULT
  | Some r when r.r_len <> old_len || new_len <= 0 -> Error Kernel.Errno.EINVAL
  | Some r ->
      if new_len = old_len then Ok old_addr
      else if new_len < old_len then begin
        do_unmap t mem ~addr:(old_addr + new_len) ~len:(old_len - new_len);
        Ok old_addr
      end
      else begin
        (* Try to extend in place. *)
        let next_start =
          match List.find_opt (fun x -> x.r_addr > r.r_addr) t.regions with
          | Some x -> x.r_addr (* regions are sorted *)
          | None -> max_int
        in
        if old_addr + new_len <= min next_start (limit_of mem)
           && ensure_mem mem old_addr new_len
        then begin
          t.mapped_bytes <- t.mapped_bytes + (new_len - old_len);
          Bytes.fill mem.Rt.Memory.data (old_addr + old_len) (new_len - old_len) '\000';
          t.regions <-
            List.map
              (fun x -> if x == r then { x with r_len = new_len } else x)
              t.regions;
          Ok old_addr
        end
        else begin
          (* Relocate: map new, copy, unmap old. *)
          match mmap t ~mem ~addr:0 ~len:new_len ~prot:r.r_prot ~flags:Kernel.Ktypes.map_private ~file:None with
          | Error _ as e -> e
          | Ok na ->
              Bytes.blit mem.Rt.Memory.data old_addr mem.Rt.Memory.data na old_len;
              do_unmap t mem ~addr:old_addr ~len:old_len;
              Ok na
        end
      end

(** Fork: duplicate the bookkeeping (contents were already copied with the
    machine's memory). *)
let clone t = { t with regions = List.map (fun r -> { r with r_prot = r.r_prot }) t.regions }

(** Invariant check used by the property tests. *)
let well_formed t =
  let rec go prev = function
    | [] -> true
    | r :: rest ->
        r.r_addr >= prev
        && r.r_addr land (page - 1) = 0
        && r.r_len > 0
        && r.r_len land (page - 1) = 0
        && go (r.r_addr + r.r_len) rest
  in
  go t.base t.regions
