(** Mini container runtime (the Docker analogue for Fig 8).

    [create] does what `docker run` does before the entrypoint executes:
    materialize the image layers into a private rootfs inside the VFS
    (union copy-up), set up namespaces and cgroup accounting, create the
    container's /etc state. This is real work proportional to the image,
    which is why containers pay a large startup intercept and base memory
    cost; the runtime-phase execution is native speed. *)

open Kernel

type cgroup = {
  mutable cg_mem_bytes : int;
  mutable cg_mem_peak : int;
  mutable cg_cpu_ns : int64;
  cg_mem_limit : int;
}

type t = {
  ct_name : string;
  ct_root : Vfs.inode; (* private rootfs *)
  ct_cgroup : cgroup;
  ct_pidns_base : int;
  mutable ct_layers_materialized : int;
  mutable ct_bytes_copied : int;
}

let charge cg n =
  cg.cg_mem_bytes <- cg.cg_mem_bytes + n;
  if cg.cg_mem_bytes > cg.cg_mem_peak then cg.cg_mem_peak <- cg.cg_mem_bytes

(** Materialize one layer into the container rootfs (copy-up). *)
let apply_layer (k : Task.kernel) (root : Vfs.inode) (cg : cgroup)
    (l : Image.layer) : int =
  let copied = ref 0 in
  let fs = k.Task.fs in
  List.iter
    (fun d ->
      let rec ensure (cur : Vfs.inode) = function
        | [] -> cur
        | seg :: rest -> (
            match Vfs.lookup cur seg with
            | Some i -> ensure i rest
            | None -> (
                match Vfs.mkdir fs cur seg ~mode:0o755 with
                | Ok i ->
                    copied := !copied + 128;
                    ensure i rest
                | Error _ -> cur))
      in
      ignore (ensure root (Vfs.split_path d)))
    l.Image.l_dirs;
  List.iter
    (fun path ->
      match Vfs.resolve_parent fs ~cwd:root path with
      | Ok (dir, name) -> ignore (Vfs.unlink fs dir name)
      | Error _ -> ())
    l.Image.l_whiteouts;
  List.iter
    (fun (path, contents) ->
      match Vfs.resolve_parent fs ~cwd:root path with
      | Ok (dir, name) -> (
          (match Vfs.lookup dir name with
          | Some _ -> ignore (Vfs.unlink fs dir name)
          | None -> ());
          match Vfs.create_file fs dir name ~mode:0o755 with
          | Ok node -> (
              match node.Vfs.kind with
              | Vfs.Reg b ->
                  (* the actual copy-up: bytes move *)
                  Bytebuf.pwrite b ~off:0 ~src:(Bytes.of_string contents)
                    ~src_off:0 ~len:(String.length contents);
                  copied := !copied + String.length contents
              | _ -> ())
          | Error _ -> ())
      | Error _ -> ())
    l.Image.l_files;
  charge cg !copied;
  !copied

let next_pidns = ref 10_000

(** `docker create` + namespace/cgroup setup. *)
let create (k : Task.kernel) ~(name : string) (img : Image.t)
    ?(mem_limit = 1 lsl 30) () : t =
  let fs = k.Task.fs in
  (* private rootfs under /var/lib/containers/<name> *)
  let root = Vfs.mkdir_p fs ("/var/lib/containers/" ^ name ^ "/rootfs") in
  let cg =
    { cg_mem_bytes = 0; cg_mem_peak = 0; cg_cpu_ns = 0L; cg_mem_limit = mem_limit }
  in
  let ct =
    {
      ct_name = name;
      ct_root = root;
      ct_cgroup = cg;
      ct_pidns_base = (incr next_pidns; !next_pidns);
      ct_layers_materialized = 0;
      ct_bytes_copied = 0;
    }
  in
  (* layer materialization: the dominant startup cost *)
  List.iter
    (fun l ->
      ct.ct_bytes_copied <- ct.ct_bytes_copied + apply_layer k root cg l;
      ct.ct_layers_materialized <- ct.ct_layers_materialized + 1)
    img.Image.layers;
  (* per-container /etc state, DNS, hostname — runtime-generated files *)
  let write path contents =
    match Vfs.resolve_parent fs ~cwd:root path with
    | Ok (dir, nm) -> (
        (match Vfs.lookup dir nm with
        | Some _ -> ignore (Vfs.unlink fs dir nm)
        | None -> ());
        match Vfs.create_file fs dir nm ~mode:0o644 with
        | Ok node -> (
            match node.Vfs.kind with
            | Vfs.Reg b ->
                Bytebuf.pwrite b ~off:0 ~src:(Bytes.of_string contents)
                  ~src_off:0 ~len:(String.length contents)
            | _ -> ())
        | Error _ -> ())
    | Error _ -> ()
  in
  write "/etc/hostname" (name ^ "\n");
  write "/etc/hosts" ("127.0.0.1 localhost " ^ name ^ "\n");
  (* namespace bookkeeping: private pid numbering base, mount table entry *)
  ignore (Vfs.mkdir_p fs ("/sys/fs/cgroup/" ^ name));
  write ("/../../../sys/fs/cgroup/" ^ name ^ "/memory.max") (string_of_int mem_limit);
  ct

(** Enter the container: chroot the task into the private rootfs. The
    caller then executes the workload natively. *)
let enter (ct : t) (task : Task.t) : unit = task.Task.cwd <- ct.ct_root

(** Base memory consumed by the container before the app allocates
    anything: the materialized layers plus runtime structures. *)
let base_memory (ct : t) : int = ct.ct_cgroup.cg_mem_peak + 2_000_000

(** Tear down: remove the private rootfs (docker rm). *)
let destroy (k : Task.kernel) (ct : t) : unit =
  let fs = k.Task.fs in
  match Vfs.resolve fs ~cwd:fs.Vfs.root ("/var/lib/containers/" ^ ct.ct_name) with
  | Ok dir -> (
      match Vfs.resolve_parent fs ~cwd:fs.Vfs.root ("/var/lib/containers/" ^ ct.ct_name) with
      | Ok (parent, name) ->
          ignore dir;
          let rec rm_rf (d : Vfs.inode) =
            match d.Vfs.kind with
            | Vfs.Dir dd ->
                Hashtbl.iter (fun _ c -> rm_rf c) dd.Vfs.entries;
                Hashtbl.reset dd.Vfs.entries
            | _ -> ()
          in
          rm_rf dir;
          ignore (Vfs.rmdir fs parent name)
      | Error _ -> ())
  | Error _ -> ()
