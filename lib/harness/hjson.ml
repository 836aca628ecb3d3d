(* perfbench only: perfbench/ still reads JSON under this name, until
   a benchmark change moves it to {!Telemetry.Json}. *)

include Telemetry.Json
