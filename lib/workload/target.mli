(** Loadable mechanism x problem targets.

    A target packages one registered solution from [sync_problems] —
    the same first-class modules the conformance registry verifies —
    behind a uniform "array of operations" interface the load generator
    can drive without knowing the problem. Each instance owns a fresh
    self-checking resource (ring / slot / store / disk), so an
    ill-synchronized mechanism fails the run loudly instead of producing
    a fast-but-wrong throughput number.

    Operation selection semantics matter for liveness: for the
    producer/consumer problems (bounded buffer, one-slot buffer) every
    worker must execute the full [put; get] cycle per iteration —
    per-worker balance is what makes an all-workers-blocked-in-[put]
    state unreachable and lets the run drain cleanly at shutdown. Those
    targets declare {!Cycle}; request/response problems (readers-writers,
    FCFS, disk) declare {!Weighted} mixes or single-op cycles.

    The alarm-clock problem historically sat out (a wall-clock load on
    it measures its virtual-clock driver as much as the mechanism); E27
    brings it in with the driver embedded — a ticker thread inside the
    instance, identical for every tier, so tier-to-tier ratios still
    isolate the synchronizer. *)

type op = {
  name : string;
  run : rng:Sync_platform.Prng.t -> pid:int -> unit;
      (** Execute one operation. [rng] is the calling worker's private
          generator (parameter skew); [pid] its worker index. *)
}

type selection =
  | Cycle  (** run the whole op array in order, once per iteration *)
  | Weighted of int array
      (** pick one op per iteration with these relative weights *)

type tier = Sync_prims.Tier.t
(** Which platform substrate the instance is built on: the solution is
    built inside a {!Sync_prims.Tier.with_} scope of this tier.
    [`Default] is the stdlib-backed tier; [`Fast] gives adaptive
    mutexes and fetch-and-add weak semaphores, and gives the bounded
    buffer the Vyukov {!Sync_resources.Fastring} resource. Mechanism
    code and semantics are identical; only the substrate's cost profile
    changes (E22). Under [`Prim c] every platform mutex and counting
    semaphore is constructed from atomic class [c] alone (E25 hierarchy
    runs); [`Prim Native] is the explicit no-restriction scope, labeled
    ["native"]. Under [`Queue k] every platform mutex is a local-spin
    queue lock of kind [k] (MCS / CLH / proportional ticket) and
    counting semaphores use the FAA prim constructions (E23
    scalable-lock runs). [`Adaptive] builds it under
    {!Sync_platform.Mutex.with_swappable} — every platform mutex is a
    hot-swappable site the E27 controller can retier live; the scope's
    site registry survives the build so the controller can enumerate
    it afterwards. *)

val tier_name : tier -> string
(** ["default"] / ["fast"] — the label reported in {!Report.t} rows. *)

type instance = {
  meta : Sync_taxonomy.Meta.t;  (** the driven solution's registry metadata *)
  tier : string;  (** {!tier_name} of the tier the instance was built on *)
  ops : op array;
  selection : selection;
  stop : unit -> unit;  (** release solution resources (CSP servers etc.) *)
}

type params = {
  capacity : int;  (** bounded-buffer slots (default 8) *)
  work : int;  (** busywork iterations inside each resource body (default 0) *)
  read_pct : int;  (** readers-writers read share, 0..100 (default 90) *)
  tracks : int;  (** disk cylinders (default 256) *)
  hot_pct : int;
      (** disk skew: percentage of requests aimed at the first tenth of
          the tracks (default 0 = uniform) *)
}

val default_params : params

val problems : string list
(** Problems with load targets, in the paper's order. *)

val mechanisms : problem:string -> string list
(** Mechanisms with a target for [problem] (empty for unknown). *)

val create :
  ?params:params -> ?tier:tier -> problem:string -> mechanism:string ->
  unit -> (instance, string) result
(** Build a fresh instance (fresh resource, fresh synchronizer). With
    [~tier:`Fast] the whole solution is built on the fast tier (no
    effect inside a {!Detrt} run, where the deterministic substrate
    always wins). The error names the valid choices.

    With [~tier:(`Prim c)] the build runs under the class restriction
    and may raise {!Sync_prims.Prims.Unsupported} when the mechanism
    needs a primitive class [c] cannot express — a typed outcome the
    hierarchy axis records, not an error string. *)
