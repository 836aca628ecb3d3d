(* The retired engine-sharding variable: the engine ignores it, the benchmark refuses to run with it set. *)
let env_var = "QCONGEST_SHARDS"
