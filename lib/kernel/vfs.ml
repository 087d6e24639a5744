(** In-memory virtual filesystem: inodes, directories, symlinks,
    character devices and generated (proc-style) nodes. *)

open Ktypes

type inode = {
  ino : int;
  mutable mode : int; (* type bits lor permission bits *)
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable atime : int64;
  mutable mtime : int64;
  mutable ctime : int64;
  kind : kind;
}

and kind =
  | Reg of Bytebuf.t
  | Dir of dir
  | Symlink of string
  | Chardev of chardev
  | Gen of (unit -> string) (* /proc-style: content generated at open *)

and dir = {
  entries : (string, inode) Hashtbl.t;
  mutable parent : inode option; (* None for the root *)
}

and chardev = {
  cd_name : string;
  cd_read :
    intr:(unit -> unit) option ref ->
    nonblock:bool ->
    Bytes.t -> int -> int ->
    (int, Errno.t) result;
  cd_write : Bytes.t -> int -> int -> (int, Errno.t) result;
  cd_poll : unit -> int;
  cd_poll_wq : unit Waitq.t list; (* woken when [cd_poll] may change *)
}

type t = {
  mutable next_ino : int;
  root : inode;
  (* Path-resolution cache ("dentry cache"): whole-path positive lookups
     keyed by (starting ino, path, follow) and stamped with the namespace
     generation current at fill time.  Every namespace mutation bumps
     [gen], so a stamp mismatch invalidates the whole cache at once
     without any per-entry bookkeeping.  Only successful resolutions are
     cached — error results (notably ENOENT, which O_CREAT depends on)
     are always re-derived from the tree. *)
  mutable gen : int;
  dcache : (int * string * bool, int * inode) Hashtbl.t;
  stats : Observe.Metrics.kstats option;
}

let dcache_max = 1024

(** Invalidate every cached path resolution (namespace changed). *)
let bump fs = fs.gen <- fs.gen + 1

let is_dir i = match i.kind with Dir _ -> true | _ -> false

let kind_bits i =
  match i.kind with
  | Reg _ -> s_ifreg
  | Dir _ -> s_ifdir
  | Symlink _ -> s_iflnk
  | Chardev _ -> s_ifchr
  | Gen _ -> s_ifreg

let size_of i =
  match i.kind with
  | Reg b -> Int64.of_int (Bytebuf.length b)
  | Symlink s -> Int64.of_int (String.length s)
  | Dir d -> Int64.of_int (Hashtbl.length d.entries * 32)
  | Chardev _ | Gen _ -> 0L

let stat_of i =
  {
    st_dev = 1;
    st_ino = i.ino;
    st_mode = kind_bits i lor (i.mode land 0o7777);
    st_nlink = i.nlink;
    st_uid = i.uid;
    st_gid = i.gid;
    st_rdev = 0;
    st_size = size_of i;
    st_blksize = 4096;
    st_blocks = Int64.div (Int64.add (size_of i) 511L) 512L;
    st_atime_ns = i.atime;
    st_mtime_ns = i.mtime;
    st_ctime_ns = i.ctime;
  }

let mk_inode fs ~mode kind =
  let ino = fs.next_ino in
  fs.next_ino <- ino + 1;
  let now = Fiber.now () in
  {
    ino;
    mode;
    uid = 0;
    gid = 0;
    nlink = 1;
    atime = now;
    mtime = now;
    ctime = now;
    kind;
  }

let create ?stats () =
  let root_dir = { entries = Hashtbl.create 16; parent = None } in
  let root =
    {
      ino = 1;
      mode = 0o755;
      uid = 0;
      gid = 0;
      nlink = 2;
      atime = 0L;
      mtime = 0L;
      ctime = 0L;
      kind = Dir root_dir;
    }
  in
  { next_ino = 2; root; gen = 0; dcache = Hashtbl.create 256; stats }

(* ------------------------------------------------------------------ *)
(* Path resolution                                                      *)
(* ------------------------------------------------------------------ *)

let split_path (p : string) : string list =
  List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' p)

let max_symlinks = 40

(** Resolve [path] relative to [cwd] (or the root for absolute paths).
    [follow] controls whether a trailing symlink is dereferenced. *)
let rec resolve_at fs ~(cwd : inode) ~follow ~depth (path : string) :
    (inode, Errno.t) result =
  if depth > max_symlinks then Error Errno.ELOOP
  else begin
    let start = if String.length path > 0 && path.[0] = '/' then fs.root else cwd in
    let rec walk (cur : inode) (parts : string list) : (inode, Errno.t) result =
      match parts with
      | [] -> Ok cur
      | name :: rest -> (
          match cur.kind with
          | Dir d -> (
              if name = ".." then
                match d.parent with
                | Some p -> walk p rest
                | None -> walk cur rest
              else
                match Hashtbl.find_opt d.entries name with
                | None -> Error Errno.ENOENT
                | Some child -> (
                    match child.kind with
                    | Symlink target when rest <> [] || follow -> (
                        match
                          resolve_at fs ~cwd:cur ~follow:true ~depth:(depth + 1)
                            target
                        with
                        | Ok i -> walk i rest
                        | Error _ as e -> e)
                    | _ -> walk child rest))
          | _ -> Error Errno.ENOTDIR)
    in
    walk start (split_path path)
  end

let resolve fs ~cwd ?(follow = true) path =
  let key = (cwd.ino, path, follow) in
  match Hashtbl.find_opt fs.dcache key with
  | Some (stamp, node) when stamp = fs.gen ->
      (match fs.stats with
      | Some ks ->
          ks.Observe.Metrics.dcache_hits <-
            Int64.add ks.Observe.Metrics.dcache_hits 1L
      | None -> ());
      Ok node
  | _ ->
      (match fs.stats with
      | Some ks ->
          ks.Observe.Metrics.dcache_misses <-
            Int64.add ks.Observe.Metrics.dcache_misses 1L
      | None -> ());
      let r = resolve_at fs ~cwd ~follow ~depth:0 path in
      (match r with
      | Ok node ->
          if Hashtbl.length fs.dcache >= dcache_max then
            Hashtbl.reset fs.dcache;
          Hashtbl.replace fs.dcache key (fs.gen, node)
      | Error _ -> ());
      r

(** Resolve to the parent directory and final component (for create /
    unlink / rename). *)
let resolve_parent fs ~cwd (path : string) : (inode * string, Errno.t) result =
  let parts = split_path path in
  match List.rev parts with
  | [] -> Error Errno.EINVAL
  | base :: rev_dir ->
      let dir_path =
        (if String.length path > 0 && path.[0] = '/' then "/" else "")
        ^ String.concat "/" (List.rev rev_dir)
      in
      let dir_path = if dir_path = "" then "." else dir_path in
      (match resolve fs ~cwd dir_path with
      | Ok d when is_dir d -> Ok (d, base)
      | Ok _ -> Error Errno.ENOTDIR
      | Error _ as e -> e)

let dir_of i =
  match i.kind with Dir d -> Some d | _ -> None

let lookup (dir : inode) name : inode option =
  match dir.kind with
  | Dir d -> (
      if name = ".." then d.parent
      else if name = "." then Some dir
      else Hashtbl.find_opt d.entries name)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Mutations                                                            *)
(* ------------------------------------------------------------------ *)

let add_entry fs (dirnode : inode) name (child : inode) :
    (unit, Errno.t) result =
  match dirnode.kind with
  | Dir d ->
      if Hashtbl.mem d.entries name then Error Errno.EEXIST
      else begin
        Hashtbl.replace d.entries name child;
        (match child.kind with
        | Dir cd ->
            cd.parent <- Some dirnode;
            dirnode.nlink <- dirnode.nlink + 1
        | _ -> ());
        dirnode.mtime <- Fiber.now ();
        bump fs;
        Ok ()
      end
  | _ -> Error Errno.ENOTDIR

let create_file fs (dirnode : inode) name ~mode : (inode, Errno.t) result =
  let i = mk_inode fs ~mode:(mode land 0o7777) (Reg (Bytebuf.create ())) in
  match add_entry fs dirnode name i with Ok () -> Ok i | Error _ as e -> e

let mkdir fs (dirnode : inode) name ~mode : (inode, Errno.t) result =
  let d = { entries = Hashtbl.create 8; parent = Some dirnode } in
  let i = mk_inode fs ~mode:(mode land 0o7777) (Dir d) in
  i.nlink <- 2;
  match add_entry fs dirnode name i with Ok () -> Ok i | Error _ as e -> e

let symlink fs (dirnode : inode) name ~target : (inode, Errno.t) result =
  let i = mk_inode fs ~mode:0o777 (Symlink target) in
  match add_entry fs dirnode name i with Ok () -> Ok i | Error _ as e -> e

let add_chardev fs (dirnode : inode) name cd : (inode, Errno.t) result =
  let i = mk_inode fs ~mode:0o666 (Chardev cd) in
  match add_entry fs dirnode name i with Ok () -> Ok i | Error _ as e -> e

let add_gen fs (dirnode : inode) name gen : (inode, Errno.t) result =
  let i = mk_inode fs ~mode:0o444 (Gen gen) in
  match add_entry fs dirnode name i with Ok () -> Ok i | Error _ as e -> e

let unlink fs (dirnode : inode) name : (unit, Errno.t) result =
  match dirnode.kind with
  | Dir d -> (
      match Hashtbl.find_opt d.entries name with
      | None -> Error Errno.ENOENT
      | Some child -> (
          match child.kind with
          | Dir _ -> Error Errno.EISDIR
          | _ ->
              Hashtbl.remove d.entries name;
              child.nlink <- child.nlink - 1;
              child.ctime <- Fiber.now ();
              bump fs;
              Ok ()))
  | _ -> Error Errno.ENOTDIR

let rmdir fs (dirnode : inode) name : (unit, Errno.t) result =
  match dirnode.kind with
  | Dir d -> (
      match Hashtbl.find_opt d.entries name with
      | None -> Error Errno.ENOENT
      | Some child -> (
          match child.kind with
          | Dir cd ->
              if Hashtbl.length cd.entries > 0 then Error Errno.ENOTEMPTY
              else begin
                Hashtbl.remove d.entries name;
                dirnode.nlink <- dirnode.nlink - 1;
                bump fs;
                Ok ()
              end
          | _ -> Error Errno.ENOTDIR))
  | _ -> Error Errno.ENOTDIR

let link fs (dirnode : inode) name (target : inode) : (unit, Errno.t) result =
  match target.kind with
  | Dir _ -> Error Errno.EPERM
  | _ -> (
      match add_entry fs dirnode name target with
      | Ok () ->
          target.nlink <- target.nlink + 1;
          Ok ()
      | Error _ as e -> e)

let rename fs (srcdir : inode) sname (dstdir : inode) dname :
    (unit, Errno.t) result =
  match (srcdir.kind, dstdir.kind) with
  | Dir sd, Dir dd -> (
      match Hashtbl.find_opt sd.entries sname with
      | None -> Error Errno.ENOENT
      | Some child ->
          (* Replace any existing destination (non-directory only). *)
          (match Hashtbl.find_opt dd.entries dname with
          | Some existing when is_dir existing -> Error Errno.EISDIR
          | Some existing ->
              existing.nlink <- existing.nlink - 1;
              Hashtbl.remove dd.entries dname;
              Hashtbl.remove sd.entries sname;
              Hashtbl.replace dd.entries dname child;
              (match child.kind with
              | Dir cd -> cd.parent <- Some dstdir
              | _ -> ());
              bump fs;
              Ok ()
          | None ->
              Hashtbl.remove sd.entries sname;
              Hashtbl.replace dd.entries dname child;
              (match child.kind with
              | Dir cd -> cd.parent <- Some dstdir
              | _ -> ());
              bump fs;
              Ok ()))
  | _ -> Error Errno.ENOTDIR

(** Directory listing as (name, dtype, ino) triples including . and .. *)
let readdir (dirnode : inode) : (string * int * int) list =
  match dirnode.kind with
  | Dir d ->
      let dtype i =
        match i.kind with
        | Reg _ | Gen _ -> dt_reg
        | Dir _ -> dt_dir
        | Symlink _ -> dt_lnk
        | Chardev _ -> dt_chr
      in
      let parent_ino =
        match d.parent with Some p -> p.ino | None -> dirnode.ino
      in
      (".", dt_dir, dirnode.ino) :: ("..", dt_dir, parent_ino)
      :: (Hashtbl.fold
            (fun name i acc -> (name, dtype i, i.ino) :: acc)
            d.entries []
         |> List.sort compare)
  | _ -> []

(** Absolute path of an inode (best effort, for getcwd). *)
let path_of fs (node : inode) : string =
  let rec up (i : inode) acc =
    match i.kind with
    | Dir d -> (
        match d.parent with
        | None -> "/" ^ String.concat "/" acc
        | Some p -> (
            match p.kind with
            | Dir pd ->
                let name =
                  Hashtbl.fold
                    (fun n c acc -> if c == i then Some n else acc)
                    pd.entries None
                in
                (match name with
                | Some n -> up p (n :: acc)
                | None -> "/" ^ String.concat "/" acc)
            | _ -> "/" ^ String.concat "/" acc))
    | _ -> "/" ^ String.concat "/" acc
  in
  ignore fs;
  up node []

(** Ensure a directory path exists (mkdir -p), returning the leaf. *)
let mkdir_p fs path : inode =
  let parts = split_path path in
  List.fold_left
    (fun cur name ->
      match lookup cur name with
      | Some i when is_dir i -> i
      | Some _ -> failwith ("mkdir_p: not a dir: " ^ name)
      | None -> (
          match mkdir fs cur name ~mode:0o755 with
          | Ok i -> i
          | Error e -> failwith ("mkdir_p: " ^ Errno.to_string e)))
    fs.root parts

(** Write a whole file, creating parents (test/image setup helper). *)
let write_file fs path (content : string) : unit =
  let parts = split_path path in
  match List.rev parts with
  | [] -> invalid_arg "write_file"
  | base :: rev_dir ->
      let dir = mkdir_p fs (String.concat "/" (List.rev rev_dir)) in
      let node =
        match lookup dir base with
        | Some i -> i
        | None -> (
            match create_file fs dir base ~mode:0o644 with
            | Ok i -> i
            | Error e -> failwith (Errno.to_string e))
      in
      (match node.kind with
      | Reg b ->
          Bytebuf.clear b;
          Bytebuf.pwrite b ~off:0 ~src:(Bytes.of_string content) ~src_off:0
            ~len:(String.length content)
      | _ -> invalid_arg "write_file: not a regular file")

let read_file fs ~cwd path : (string, Errno.t) result =
  match resolve fs ~cwd path with
  | Ok { kind = Reg b; _ } -> Ok (Bytebuf.contents b)
  | Ok { kind = Gen g; _ } -> Ok (g ())
  | Ok _ -> Error Errno.EISDIR
  | Error _ as e -> e
