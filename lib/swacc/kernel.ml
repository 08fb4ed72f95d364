type direction = In | Out | Inout

type copy_freq = Per_element | Per_chunk

type layout_kind = Contiguous | Strided of int

type copy_spec = {
  array_name : string;
  bytes_per_elem : int;
  direction : direction;
  freq : copy_freq;
  layout : layout_kind;
  base_addr : int;
}

type gload_spec = {
  g_bytes : int;
  count_for : int -> int;
  addr_for : int -> int -> int;
}

type t = {
  name : string;
  n_elements : int;
  copies : copy_spec list;
  body : Body.t;
  body_trips_per_element : int;
  gloads : gload_spec option;
  ialu_per_access : int;
  vector_width : int;
  spill_gloads : (int -> int) option;
}

type variant = { grain : int; unroll : int; active_cpes : int; double_buffer : bool }

let make ~name ~n_elements ~copies ~body ?(body_trips_per_element = 1) ?gloads
    ?(ialu_per_access = 1) ?spill_gloads ?(vector_width = 1) () =
  if not (List.mem vector_width [ 1; 2; 4 ]) then
    invalid_arg "Kernel.make: vector width must be 1, 2 or 4";
  if n_elements <= 0 then invalid_arg "Kernel.make: n_elements must be positive";
  if body_trips_per_element <= 0 then invalid_arg "Kernel.make: body trips must be positive";
  (match Body.validate body with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Kernel.make: invalid body: " ^ msg));
  List.iter
    (fun c ->
      if c.bytes_per_elem <= 0 then
        invalid_arg (Printf.sprintf "Kernel.make: array %s has non-positive size" c.array_name);
      if c.base_addr < 0 then
        invalid_arg (Printf.sprintf "Kernel.make: array %s has negative base" c.array_name);
      match c.layout with
      | Strided s when s < c.bytes_per_elem && c.freq = Per_element ->
          invalid_arg (Printf.sprintf "Kernel.make: array %s stride under row size" c.array_name)
      | Strided _ | Contiguous -> ())
    copies;
  (match gloads with
  | Some g when g.g_bytes <= 0 -> invalid_arg "Kernel.make: gload bytes must be positive"
  | Some _ | None -> ());
  {
    name;
    n_elements;
    copies;
    body;
    body_trips_per_element;
    gloads;
    ialu_per_access;
    vector_width;
    spill_gloads;
  }

let vectorize t ~width =
  if not (List.mem width [ 1; 2; 4 ]) then
    invalid_arg "Kernel.vectorize: width must be 1, 2 or 4";
  { t with vector_width = width }

let spm_bytes_per_chunk t ~grain =
  List.fold_left
    (fun acc c ->
      match c.freq with
      | Per_element -> acc + (c.bytes_per_elem * grain)
      | Per_chunk -> acc + c.bytes_per_elem)
    0 t.copies

let elem_bytes_per_element t =
  List.fold_left
    (fun acc c -> match c.freq with Per_element -> acc + c.bytes_per_elem | Per_chunk -> acc)
    0 t.copies

let ceil_div a b = (a + b - 1) / b

let total_chunks t ~grain =
  if grain <= 0 then invalid_arg "Kernel.total_chunks: grain must be positive";
  ceil_div t.n_elements grain

let effective_active_cpes t ~grain ~requested =
  if requested <= 0 then invalid_arg "Kernel.effective_active_cpes: requested must be positive";
  Stdlib.min requested (total_chunks t ~grain)

let coalesce_gloads t ~factor =
  if factor < 1 then invalid_arg "Kernel.coalesce_gloads: factor must be >= 1";
  match t.gloads with
  | None -> t
  | Some g ->
      if factor = 1 then t
      else begin
        let merged_bytes = g.g_bytes * factor in
        if merged_bytes > 32 then
          invalid_arg
            (Printf.sprintf "Kernel.coalesce_gloads: %d x %dB exceeds the 32-byte Gload limit"
               factor g.g_bytes);
        let ceil_div a b = (a + b - 1) / b in
        let gloads =
          Some
            {
              g_bytes = merged_bytes;
              count_for = (fun e -> ceil_div (g.count_for e) factor);
              addr_for = (fun e j -> g.addr_for e (j * factor));
            }
        in
        { t with gloads; name = t.name ^ "+coalesced" }
      end

let chunks_of_cpe t ~grain ~active_cpes ~cpe =
  let nchunks = total_chunks t ~grain in
  let rec collect k acc =
    if k >= nchunks then List.rev acc
    else begin
      let first = k * grain in
      let n = Stdlib.min grain (t.n_elements - first) in
      collect (k + active_cpes) ((first, n) :: acc)
    end
  in
  collect cpe []
