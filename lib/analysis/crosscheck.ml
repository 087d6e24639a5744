(** Dynamic soundness check for the static analyzer: diff the syscall
    profile of a run under the module's *derived* policy against the
    static reachability set.

    The invariant: the static set must be a superset of the dynamic set.
    Any dynamically observed syscall outside the static set — or any
    seccomp denial under the derived allowlist — is an analyzer
    soundness bug, not an application bug, and callers are expected to
    fail loudly on it. (Denials and escapes are distinct observables:
    a denied call is intercepted before the kernel, so an unsound policy
    shows up in [cc_denied] while an unsound *trace* comparison would
    show up in [cc_escaped].)

    The comparison ({!check}) is separate from the run ({!run}), so any
    run under the derived policy can be checked — `waliscan --verify`
    runs one of its own, the suite gate checks its one instrumented run. *)

type verdict = {
  cc_static : string list; (* the derived allowlist *)
  cc_dynamic : string list; (* syscalls actually dispatched *)
  cc_escaped : string list; (* dynamic \ static: soundness violations *)
  cc_denied : (string * int) list; (* seccomp denials under the policy *)
  cc_unused_allow : string list; (* static \ dynamic: over-approximation *)
}

let ok (v : verdict) = v.cc_escaped = [] && v.cc_denied = []

(** Compare the per-syscall registry [reg] of a run under [policy] (the
    policy derived from [summary]) against the static set. *)
let check ~(summary : Reach.summary) ~(policy : Wali.Seccomp.t)
    (reg : Observe.Metrics.t) : verdict =
  let static = Reach.allowlist summary in
  let dynamic = List.map fst (Observe.Metrics.by_name reg) in
  {
    cc_static = static;
    cc_dynamic = dynamic;
    cc_escaped = List.filter (fun s -> not (List.mem s static)) dynamic;
    cc_denied = Wali.Seccomp.denied_counts policy;
    cc_unused_allow = List.filter (fun s -> not (List.mem s dynamic)) static;
  }

type result = {
  cc_status : int; (* packed wait status of the run *)
  cc_output : string; (* console output *)
  cc_verdict : verdict;
}

(** Run [binary] under the policy derived from [summary] and check it.
    [setup]/[stdin] mirror the app-suite harness: VFS fixtures and
    console input the workload expects. *)
let run ?setup ?stdin ?(argv = [ "module" ]) ?(env = [])
    ~(summary : Reach.summary) ~(binary : string) () : result =
  let policy = Reach.policy summary in
  let trace = Wali.Strace.create () in
  let kernel = Apps.Suite.boot ?setup ?stdin () in
  let status, out, _ =
    Wali.Interface.run_program ~kernel ~trace ~policy ~binary ~argv ~env ()
  in
  {
    cc_status = status;
    cc_output = out;
    cc_verdict = check ~summary ~policy (Wali.Strace.metrics trace);
  }

(** One-call form: derive the policy from [binary] itself, then verify. *)
let run_binary ?setup ?stdin ?argv ?env ?name (binary : string) : result =
  let summary = Reach.analyze_binary ?name binary in
  run ?setup ?stdin ?argv ?env ~summary ~binary ()
