(** Open file descriptions and per-process fd tables. *)

type desc_kind =
  | F_inode of Vfs.inode (* regular file or directory *)
  | F_gen of string (* snapshot of a generated /proc node *)
  | F_pipe_r of Pipe.t
  | F_pipe_w of Pipe.t
  | F_sock of Socket.t

type desc = {
  d_kind : desc_kind;
  mutable d_pos : int;
  mutable d_flags : int; (* O_* status flags *)
  mutable d_refs : int;
  d_path : string; (* best-effort origin path, for /proc/self/fd + strace *)
  mutable d_dir_cookie : int; (* getdents position *)
}

type entry = { mutable e_desc : desc; mutable e_cloexec : bool }

type t = {
  mutable slots : entry option array;
  mutable max_fds : int;
  (* Last-fd fast path: most syscall bursts hammer a single descriptor
     (read/read/read on one fd), so remember the last successful lookup
     and serve repeats without touching the slot array.  Any operation
     that can change what lives at a slot drops the memo. The memo holds
     the very [Some] stored in the slot, so neither a hit nor a miss
     allocates. *)
  mutable last_fd : int; (* -1: no memo *)
  mutable last : entry option; (* [slots.(last_fd)] *)
}

let create ?(max_fds = 1024) () =
  { slots = Array.make 64 None; max_fds; last_fd = -1; last = None }

let forget t =
  t.last_fd <- -1;
  t.last <- None

let mk_desc ?(flags = 0) ?(path = "") kind =
  { d_kind = kind; d_pos = 0; d_flags = flags; d_refs = 1; d_path = path;
    d_dir_cookie = 0 }

let incref d = d.d_refs <- d.d_refs + 1

(** Release one reference; when it drops to zero, tear down the kernel
    object behind the description. *)
let release ?(sock_registry : Socket.registry option) d =
  d.d_refs <- d.d_refs - 1;
  if d.d_refs = 0 then
    match d.d_kind with
    | F_pipe_r p -> Pipe.drop_reader p
    | F_pipe_w p -> Pipe.drop_writer p
    | F_sock s -> (
        match sock_registry with
        | Some reg -> Socket.close reg s
        | None -> ())
    | F_inode _ | F_gen _ -> ()

let get_entry (t : t) fd : entry option =
  if fd = t.last_fd then t.last
  else if fd < 0 || fd >= Array.length t.slots then None
  else begin
    let r = t.slots.(fd) in
    if r != None then begin
      t.last_fd <- fd;
      t.last <- r
    end;
    r
  end

let get (t : t) fd : desc option =
  match get_entry t fd with Some e -> Some e.e_desc | None -> None

let ensure_capacity t n =
  if n >= Array.length t.slots then begin
    let a = Array.make (max (2 * Array.length t.slots) (n + 1)) None in
    Array.blit t.slots 0 a 0 (Array.length t.slots);
    t.slots <- a
  end

(** Install [d] at the lowest free slot >= [from]. *)
let install ?(from = 0) ?(cloexec = false) (t : t) d : (int, Errno.t) result =
  let rec find i =
    if i >= t.max_fds then Error Errno.EMFILE
    else begin
      ensure_capacity t i;
      match t.slots.(i) with
      | None ->
          let r = Some { e_desc = d; e_cloexec = cloexec } in
          t.slots.(i) <- r;
          t.last_fd <- i;
          t.last <- r;
          Ok i
      | Some _ -> find (i + 1)
    end
  in
  find from

(** dup2 semantics: close whatever is at [fd], install [d] there. *)
let install_at ?(cloexec = false) ?sock_registry (t : t) fd d :
    (int, Errno.t) result =
  if fd < 0 || fd >= t.max_fds then Error Errno.EBADF
  else begin
    ensure_capacity t fd;
    (match t.slots.(fd) with
    | Some e -> release ?sock_registry e.e_desc
    | None -> ());
    forget t;
    t.slots.(fd) <- Some { e_desc = d; e_cloexec = cloexec };
    Ok fd
  end

let close ?sock_registry (t : t) fd : (unit, Errno.t) result =
  match get_entry t fd with
  | None -> Error Errno.EBADF
  | Some e ->
      forget t;
      t.slots.(fd) <- None;
      release ?sock_registry e.e_desc;
      Ok ()

let close_all ?sock_registry (t : t) =
  forget t;
  Array.iteri
    (fun i e ->
      match e with
      | Some e ->
          t.slots.(i) <- None;
          release ?sock_registry e.e_desc
      | None -> ())
    t.slots

let close_cloexec ?sock_registry (t : t) =
  forget t;
  Array.iteri
    (fun i e ->
      match e with
      | Some e when e.e_cloexec ->
          t.slots.(i) <- None;
          release ?sock_registry e.e_desc
      | _ -> ())
    t.slots

(** Fork: new table sharing the open file descriptions. *)
let clone (t : t) : t =
  let slots =
    Array.map
      (Option.map (fun e ->
           incref e.e_desc;
           { e_desc = e.e_desc; e_cloexec = e.e_cloexec }))
      t.slots
  in
  { slots; max_fds = t.max_fds; last_fd = -1; last = None }

let count (t : t) =
  Array.fold_left (fun n e -> if e = None then n else n + 1) 0 t.slots
