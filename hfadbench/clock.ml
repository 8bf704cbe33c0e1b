(* Monotonic nanoseconds; every latency in the benchmark is a
   difference of two readings. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9
