(** Loopback stream sockets (AF_UNIX and AF_INET on 127.0.0.1).

    A connection is a pair of pipes; connect finds the listener in the
    kernel's binding registry, hands it the server-side endpoints and
    completes immediately (no handshake modelling). *)

type addr =
  | A_unix of string
  | A_inet of int * int (* host, port; host 0x7F000001 = loopback *)

type conn = { rx : Pipe.t; tx : Pipe.t }

type listener = {
  l_addr : addr;
  backlog : conn Queue.t;
  max_backlog : int;
  accept_wq : unit Waitq.t;
  mutable l_closed : bool;
}

type state =
  | S_unbound
  | S_bound of addr
  | S_listening of listener
  | S_connected of conn
  | S_closed

type t = {
  family : int;
  mutable state : state;
  mutable opts : (int * int, int) Hashtbl.t; (* (level, opt) -> value *)
}

type registry = { mutable bindings : (addr * listener) list }

let create_registry () = { bindings = [] }

let create ~family = { family; state = S_unbound; opts = Hashtbl.create 4 }

let find_listener reg addr =
  List.find_opt (fun (a, l) -> a = addr && not l.l_closed) reg.bindings
  |> Option.map snd

let bind reg (s : t) (addr : addr) : (unit, Errno.t) result =
  match s.state with
  | S_unbound ->
      let in_use =
        List.exists (fun (a, l) -> a = addr && not l.l_closed) reg.bindings
      in
      let reuse = Hashtbl.mem s.opts (Ktypes.sol_socket, Ktypes.so_reuseaddr) in
      if in_use && not reuse then Error Errno.EADDRINUSE
      else begin
        s.state <- S_bound addr;
        Ok ()
      end
  | _ -> Error Errno.EINVAL

let listen reg (s : t) ~backlog : (unit, Errno.t) result =
  match s.state with
  | S_bound addr ->
      let l =
        {
          l_addr = addr;
          backlog = Queue.create ();
          max_backlog = max 1 backlog;
          accept_wq = Waitq.create ();
          l_closed = false;
        }
      in
      reg.bindings <- (addr, l) :: List.remove_assoc addr reg.bindings;
      s.state <- S_listening l;
      Ok ()
  | _ -> Error Errno.EINVAL

let connect reg (s : t) (addr : addr) ~intr : (unit, Errno.t) result =
  ignore intr;
  match s.state with
  | S_unbound | S_bound _ -> (
      match find_listener reg addr with
      | None -> Error Errno.ECONNREFUSED
      | Some l ->
          if Queue.length l.backlog >= l.max_backlog then Error Errno.ECONNREFUSED
          else begin
            let p1 = Pipe.create () and p2 = Pipe.create () in
            let client = { rx = p1; tx = p2 } in
            let server = { rx = p2; tx = p1 } in
            (* Each pipe has exactly one reader and one writer end. *)
            Queue.push server l.backlog;
            ignore (Waitq.wake_one l.accept_wq ());
            s.state <- S_connected client;
            Ok ()
          end)
  | S_connected _ -> Error Errno.EISCONN
  | _ -> Error Errno.EINVAL

let accept (s : t) ~intr ~nonblock : (t, Errno.t) result =
  match s.state with
  | S_listening l ->
      let rec go () =
        if not (Queue.is_empty l.backlog) then begin
          let conn = Queue.pop l.backlog in
          let peer = create ~family:s.family in
          peer.state <- S_connected conn;
          Ok peer
        end
        else if l.l_closed then Error Errno.EINVAL
        else if nonblock then Error Errno.EAGAIN
        else
          match Waitq.wait ~intr l.accept_wq with
          | Waitq.Interrupted -> Error Errno.EINTR
          | Waitq.Woken () | Waitq.Timeout -> go ()
      in
      go ()
  | _ -> Error Errno.EINVAL

let read (s : t) ~intr ~nonblock dst off len : (int, Errno.t) result =
  match s.state with
  | S_connected c -> Pipe.read c.rx ~intr ~nonblock dst off len
  | _ -> Error Errno.ENOTCONN

let write (s : t) ~intr ~nonblock src off len : (int, Errno.t) result =
  match s.state with
  | S_connected c -> Pipe.write c.tx ~intr ~nonblock ~atomic:false src off len
  | _ -> Error Errno.ENOTCONN

let shutdown (s : t) how : (unit, Errno.t) result =
  match s.state with
  | S_connected c ->
      if how = Ktypes.shut_rd || how = Ktypes.shut_rdwr then Pipe.drop_reader c.rx;
      if how = Ktypes.shut_wr || how = Ktypes.shut_rdwr then Pipe.drop_writer c.tx;
      Ok ()
  | _ -> Error Errno.ENOTCONN

let close reg (s : t) =
  (match s.state with
  | S_connected c ->
      Pipe.drop_reader c.rx;
      Pipe.drop_writer c.tx
  | S_listening l ->
      l.l_closed <- true;
      reg.bindings <- List.filter (fun (_, l') -> l' != l) reg.bindings;
      ignore (Waitq.wake_all l.accept_wq ())
  | _ -> ());
  s.state <- S_closed

let poll_bits (s : t) =
  match s.state with
  | S_connected c -> Pipe.poll_read c.rx lor Pipe.poll_write c.tx ~atomic:false
  | S_listening l -> if not (Queue.is_empty l.backlog) then Ktypes.pollin else 0
  | S_closed -> Ktypes.pollnval
  | _ -> 0

(** socketpair: two already-connected sockets. *)
let pair ~family =
  let p1 = Pipe.create () and p2 = Pipe.create () in
  let a = create ~family and b = create ~family in
  a.state <- S_connected { rx = p1; tx = p2 };
  b.state <- S_connected { rx = p2; tx = p1 };
  (a, b)
