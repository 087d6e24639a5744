(** seccomp-like dynamic syscall policies, layered entirely in user space
    above the kernel interface (paper §3.6 "Dynamic Policies").

    Because WALI syscalls are name-bound, policies are ISA-agnostic and
    can be expressed against names rather than numbers. Policies compose:
    for a given syscall name the most recently added rule wins, then the
    default applies. Rules are kept most-recent-first ([allow]/[deny]/
    [kill_on] all prepend), so resolution is the first name match. Each
    policy state has a generation, unique across policies, so a verdict
    bound to an import ({!bind}) knows when to resolve again. *)

type verdict =
  | Allow
  | Deny of Kernel.Errno.t (* fail the call with an errno *)
  | Kill (* terminate the process, like SECCOMP_RET_KILL *)

type rule = { r_name : string; r_verdict : verdict }

type t = {
  mutable rules : rule list; (* change only through allow/deny/kill_on *)
  default : verdict;
  hits : (string, int) Hashtbl.t; (* denied-call accounting *)
  mutable gen : int;
}

let last_gen = ref 0
let fresh_gen () = incr last_gen; !last_gen

let allow_all () = { rules = []; default = Allow; hits = Hashtbl.create 8; gen = fresh_gen () }

(** A default-deny policy seeded with an allowlist, the shape used by
    gVisor/Nabla-style secure containers. *)
let allowlist names =
  {
    (* reversed so that, should a name repeat, the later entry is first
       and wins — the same most-recent-first order the mutators keep *)
    rules = List.rev_map (fun n -> { r_name = n; r_verdict = Allow }) names;
    default = Deny Kernel.Errno.EPERM;
    hits = Hashtbl.create 8;
    gen = fresh_gen ();
  }

(* Mutators prepend: the head of [rules] is always the newest rule, so
   a later [deny] overrides an earlier allowlist entry and vice versa. *)
let add t name v =
  t.rules <- { r_name = name; r_verdict = v } :: t.rules;
  t.gen <- fresh_gen ()

let allow t name = add t name Allow
let deny t name ?(errno = Kernel.Errno.EPERM) () = add t name (Deny errno)
let kill_on t name = add t name Kill

(* The most recently added rule for [name], or the policy default. First
   match is correct because rules are kept most-recent-first. *)
let resolve t name =
  match List.find_opt (fun r -> r.r_name = name) t.rules with
  | Some r -> r.r_verdict
  | None -> t.default

(* Count a denied or killed call. *)
let counted t name v =
  (match v with
  | Allow -> ()
  | Deny _ | Kill ->
      Hashtbl.replace t.hits name (1 + Option.value (Hashtbl.find_opt t.hits name) ~default:0));
  v

(** The verdict for a call of [name]. *)
let check t name : verdict = counted t name (resolve t name)

(** A verdict bound to one name: {!check_bound} gives what {!check}
    would, without a rule lookup while the policy is unchanged. *)
type bound = { b_name : string; mutable b_gen : int; mutable b_verdict : verdict }

let bind t name = { b_name = name; b_gen = t.gen; b_verdict = resolve t name }

let check_bound t b : verdict =
  if b.b_gen <> t.gen then begin
    b.b_verdict <- resolve t b.b_name;
    b.b_gen <- t.gen
  end;
  counted t b.b_name b.b_verdict

let denied_counts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hits []
  |> List.sort compare
