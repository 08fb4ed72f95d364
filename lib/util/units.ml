let cycles_to_seconds ~freq_hz c = c /. freq_hz

let cycles_to_us ~freq_hz c = c /. freq_hz *. 1e6

let seconds_to_cycles ~freq_hz s = s *. freq_hz

let bytes_per_cycle ~bandwidth_bytes_per_s ~freq_hz = bandwidth_bytes_per_s /. freq_hz

let pp_cycles fmt c =
  let abs = Float.abs c in
  if abs >= 1e9 then Format.fprintf fmt "%.2f Gcyc" (c /. 1e9)
  else if abs >= 1e6 then Format.fprintf fmt "%.2f Mcyc" (c /. 1e6)
  else if abs >= 1e3 then Format.fprintf fmt "%.2f Kcyc" (c /. 1e3)
  else Format.fprintf fmt "%.0f cyc" c

let pp_bytes fmt b =
  let f = float_of_int b in
  if f >= 1024. *. 1024. *. 1024. then Format.fprintf fmt "%.1f GiB" (f /. (1024. *. 1024. *. 1024.))
  else if f >= 1024. *. 1024. then Format.fprintf fmt "%.1f MiB" (f /. (1024. *. 1024.))
  else if f >= 1024. then Format.fprintf fmt "%.1f KiB" (f /. 1024.)
  else Format.fprintf fmt "%d B" b
