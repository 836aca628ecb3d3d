(** Structured verdicts of the guarantee auditor.

    Every certifier in this library produces a {!certificate}: which
    paper claim it audited, how many individual checks it performed,
    and a machine-readable list of {!violation}s when the claim did
    not hold on the concrete run. Certificates aggregate into a
    {!report} with a three-valued outcome and a stable exit-code
    mapping, serialized as the [qcongest-check/v1] JSON artifact that
    CI validates. *)

type violation = {
  code : string;  (** Stable kebab-case discriminant, e.g.
                      ["edge-overload"]. *)
  detail : string;  (** Human-readable one-liner. *)
  data : (string * Telemetry.Json.t) list;  (** Structured payload. *)
}

val violation : ?data:(string * Telemetry.Json.t) list -> code:string -> string -> violation

type status =
  | Pass  (** Every check ran and held. *)
  | Fail  (** At least one violation. *)
  | Inconclusive
      (** The certifier could not produce a verdict (no input data,
          zero trials, missing rows) — distinct from [Pass] so a
          misconfigured audit can never masquerade as a green one. *)

type certificate = {
  name : string;  (** Certifier id, e.g. ["congest-legality"]. *)
  claim : string;  (** The paper claim audited, e.g.
                       ["Theorem 1.1 (1+o(1)) approximation ratio"]. *)
  status : status;
  checked : int;  (** Individual checks performed. *)
  violations : violation list;
  notes : (string * Telemetry.Json.t) list;
      (** Extra payload (measured quantities, instance facts). *)
}

val certificate :
  ?notes:(string * Telemetry.Json.t) list ->
  name:string ->
  claim:string ->
  checked:int ->
  violation list ->
  certificate
(** Status is derived: [Fail] on any violation, [Inconclusive] when
    [checked = 0] and nothing was violated, [Pass] otherwise. *)

type report = { certificates : certificate list }

val status : report -> status
(** [Fail] dominates, then [Inconclusive], then [Pass]; the empty
    report is [Inconclusive]. *)

val exit_code : report -> int
(** [Pass -> 0], [Fail -> 1], [Inconclusive -> 3] — the contract the
    CLI and CI smoke assert. 2 is left to the CLI for usage errors. *)

val status_name : status -> string

val certificate_to_json : certificate -> Telemetry.Json.t

val to_json : report -> Telemetry.Json.t
(** The [qcongest-check/v1] document:
    [{"schema":"qcongest-check/v1","pass":…,"status":…,
      "certificates":[…]}]. *)

val pp_certificate : Format.formatter -> certificate -> unit
(** One summary line, then one indented line per violation. *)
