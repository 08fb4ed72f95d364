let scaled s n = Stdlib.max 1 (int_of_float (s *. float_of_int n))

let copy layout_alloc ~name ~bytes_per_elem ~n_elements ?(freq = Sw_swacc.Kernel.Per_element)
    ?(layout = Sw_swacc.Kernel.Contiguous) direction =
  let total_bytes =
    match freq with
    | Sw_swacc.Kernel.Per_chunk -> bytes_per_elem
    | Sw_swacc.Kernel.Per_element -> (
        match layout with
        | Sw_swacc.Kernel.Contiguous -> bytes_per_elem * n_elements
        | Sw_swacc.Kernel.Strided stride -> stride * n_elements)
  in
  {
    Sw_swacc.Kernel.array_name = name;
    bytes_per_elem;
    direction;
    freq;
    layout;
    base_addr = Sw_swacc.Layout.alloc layout_alloc ~bytes:total_bytes;
  }

let hash2 a b =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let h = mix (Int64.add (Int64.mul (Int64.of_int a) 0x9E3779B97F4A7C15L) (Int64.of_int b)) in
  Int64.to_int (Int64.shift_right_logical h 2)
