type kind = Regular | Irregular

type entry = {
  name : string;
  kind : kind;
  description : string;
  build : scale:float -> Sw_swacc.Kernel.t;
  variant : Sw_swacc.Kernel.variant;
  grains : int list;
  unrolls : int list;
}

let rodinia =
  [
    {
      name = "kmeans";
      kind = Regular;
      description = "point-to-centroid distances, centroids SPM-resident";
      build = (fun ~scale -> Kmeans.kernel ~scale);
      variant = Kmeans.variant;
      grains = Kmeans.grains;
      unrolls = Kmeans.unrolls;
    };
    {
      name = "cfd";
      kind = Regular;
      description = "Euler solver per-cell flux (div + sqrt)";
      build = (fun ~scale -> Cfd.kernel ~scale);
      variant = Cfd.variant;
      grains = Cfd.grains;
      unrolls = Cfd.unrolls;
    };
    {
      name = "lud";
      kind = Regular;
      description = "LU row elimination against an SPM-resident pivot row";
      build = (fun ~scale -> Lud.kernel ~scale);
      variant = Lud.variant;
      grains = Lud.grains;
      unrolls = Lud.unrolls;
    };
    {
      name = "hotspot";
      kind = Regular;
      description = "5-point thermal stencil over grid rows";
      build = (fun ~scale -> Hotspot.kernel ~scale);
      variant = Hotspot.variant;
      grains = Hotspot.grains;
      unrolls = Hotspot.unrolls;
    };
    {
      name = "backprop";
      kind = Regular;
      description = "neural weight adjustment, one weight row per unit";
      build = (fun ~scale -> Backprop.kernel ~scale);
      variant = Backprop.variant;
      grains = Backprop.grains;
      unrolls = Backprop.unrolls;
    };
    {
      name = "nbody";
      kind = Regular;
      description = "all-pairs gravity against an SPM tile of bodies";
      build = (fun ~scale -> Nbody.kernel ~scale);
      variant = Nbody.variant;
      grains = Nbody.grains;
      unrolls = Nbody.unrolls;
    };
    {
      name = "nw";
      kind = Regular;
      description = "Needleman-Wunsch DP rows vs reference row";
      build = (fun ~scale -> Nw.kernel ~scale);
      variant = Nw.variant;
      grains = Nw.grains;
      unrolls = Nw.unrolls;
    };
    {
      name = "srad";
      kind = Regular;
      description = "speckle-reducing diffusion coefficients (div + sqrt)";
      build = (fun ~scale -> Srad.kernel ~scale);
      variant = Srad.variant;
      grains = Srad.grains;
      unrolls = Srad.unrolls;
    };
    {
      name = "pathfinder";
      kind = Regular;
      description = "grid DP: min of three predecessors per column";
      build = (fun ~scale -> Pathfinder.kernel ~scale);
      variant = Pathfinder.variant;
      grains = Pathfinder.grains;
      unrolls = Pathfinder.unrolls;
    };
    {
      name = "bfs";
      kind = Irregular;
      description = "frontier expansion, Gload per neighbor, imbalanced degrees";
      build = (fun ~scale -> Bfs.kernel ~scale);
      variant = Bfs.variant;
      grains = Bfs.grains;
      unrolls = Bfs.unrolls;
    };
    {
      name = "b+tree";
      kind = Irregular;
      description = "root-to-leaf point queries, one Gload per level";
      build = (fun ~scale -> Btree.kernel ~scale);
      variant = Btree.variant;
      grains = Btree.grains;
      unrolls = Btree.unrolls;
    };
    {
      name = "streamcluster";
      kind = Irregular;
      description = "distances to SPM medians plus Gload membership lookups";
      build = (fun ~scale -> Streamcluster.kernel ~scale);
      variant = Streamcluster.variant;
      grains = Streamcluster.grains;
      unrolls = Streamcluster.unrolls;
    };
    {
      name = "leukocyte";
      kind = Irregular;
      description = "GICOV sampling at data-dependent image positions";
      build = (fun ~scale -> Leukocyte.kernel ~scale);
      variant = Leukocyte.variant;
      grains = Leukocyte.grains;
      unrolls = Leukocyte.unrolls;
    };
  ]

let extras =
  [
    {
      name = "vector-add";
      kind = Regular;
      description = "the paper's Figure-3 running example";
      build = (fun ~scale -> Vadd.kernel ~scale);
      variant = Vadd.variant;
      grains = Vadd.grains;
      unrolls = Vadd.unrolls;
    };
    {
      name = "lavamd";
      kind = Regular;
      description = "particle forces against an SPM-resident 27-box neighborhood";
      build = (fun ~scale -> Lavamd.kernel ~scale);
      variant = Lavamd.variant;
      grains = Lavamd.grains;
      unrolls = Lavamd.unrolls;
    };
    {
      name = "knn";
      kind = Regular;
      description = "nearest-neighbor distances over a wide record stream";
      build = (fun ~scale -> Knn.kernel ~scale);
      variant = Knn.variant;
      grains = Knn.grains;
      unrolls = Knn.unrolls;
    };
    {
      name = "gaussian";
      kind = Regular;
      description = "row reduction against the pivot row (augmented system)";
      build = (fun ~scale -> Gaussian.kernel ~scale);
      variant = Gaussian.variant;
      grains = Gaussian.grains;
      unrolls = Gaussian.unrolls;
    };
    {
      name = "wrf-dynamics";
      kind = Regular;
      description = "memory-bound 3D sweep; DMA slices shrink with #active_CPEs";
      build = (fun ~scale -> Wrf_dynamics.kernel ~scale ());
      variant = Wrf_dynamics.variant;
      grains = Wrf_dynamics.grains;
      unrolls = Wrf_dynamics.unrolls;
    };
    {
      name = "wrf-physics";
      kind = Regular;
      description = "compute-bound column physics (div + sqrt chains)";
      build = (fun ~scale -> Wrf_physics.kernel ~scale);
      variant = Wrf_physics.variant;
      grains = Wrf_physics.grains;
      unrolls = Wrf_physics.unrolls;
    };
  ]

let all = rodinia @ extras

let tuning_subset =
  List.filter (fun e -> List.mem e.name [ "kmeans"; "cfd"; "lud"; "hotspot"; "backprop" ]) rodinia

let find name = List.find_opt (fun e -> e.name = name) all

let find_exn name =
  match find name with Some e -> e | None -> raise Not_found

let names () = List.map (fun e -> e.name) all

let max_scale = 65536.0

let check_scale scale =
  if Float.is_finite scale && scale > 0.0 && scale <= max_scale then Ok ()
  else Error (Printf.sprintf "scale %g: expected a finite number in (0, %g]" scale max_scale)
