(** One op as a user runs it: a fresh [qcongest] process, timed from
    spawn to exit, with the OCaml runtime's exit statistics
    ([OCAMLRUNPARAM=v=0x400]) read back from its standard error. *)

type t = {
  exit_code : int;  (** [-1] when the process was killed by a signal. *)
  wall_s : float;  (** Raw wall seconds from spawn to reaped exit. *)
  alloc_words : float option;
      (** [allocated_words] of the runtime's exit report; [None] when the
          process died before printing it. *)
  top_heap_words : float option;  (** [top_heap_words] of the same report. *)
}

val env : domains:int -> artifacts:string -> string array
(** The op environment: this process's environment with
    [QCONGEST_JOBS], [OCAMLRUNPARAM] and [ARTIFACTS_DIR] replaced, and
    [QCONGEST_SHARDS] removed, so every op runs the recorded
    configuration. *)

val run : env:string array -> dir:string -> string -> string list -> t
(** [run ~env ~dir cli args] runs [cli args] to completion, with its
    standard output and error kept in [dir/op.stdout] and
    [dir/op.stderr]. *)
