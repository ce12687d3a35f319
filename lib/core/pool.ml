type grant = { g_nodes : int list; g_power : float; g_bandwidth : float }

type t = {
  mutable members : int list; (* all nodes owned, ascending *)
  mutable free : int list; (* free subset, ascending *)
  (* List.length of the two lists, kept so counts are O(1) *)
  mutable n_members : int;
  mutable n_free : int;
  mutable power_budget : float;
  mutable power_used : float;
  mutable bw_budget : float;
  mutable bw_used : float;
}

let create ~nodes ?(power_budget = infinity) ?(fs_bandwidth = infinity) () =
  let sorted = List.sort_uniq compare nodes in
  let n = List.length sorted in
  {
    members = sorted;
    free = sorted;
    n_members = n;
    n_free = n;
    power_budget;
    power_used = 0.0;
    bw_budget = fs_bandwidth;
    bw_used = 0.0;
  }

let total_nodes t = t.n_members
let free_nodes t = t.n_free
let free_node_list t = t.free
let power_budget t = t.power_budget
let power_in_use t = t.power_used
let bandwidth_in_use t = t.bw_used

let node_count_fits t n = n <= t.n_free

let rec take n = function
  | rest when n = 0 -> ([], rest)
  | [] -> ([], [])
  | x :: rest ->
    let got, remaining = take (n - 1) rest in
    (x :: got, remaining)

let try_grant t ~spec ~nnodes =
  let power = Jobspec.power_needed spec ~nnodes in
  let bw = spec.Jobspec.fs_bandwidth in
  if
    nnodes <= t.n_free
    && t.power_used +. power <= t.power_budget +. 1e-9
    && t.bw_used +. bw <= t.bw_budget +. 1e-9
  then begin
    let got, rest = take nnodes t.free in
    t.free <- rest;
    t.n_free <- t.n_free - List.length got;
    t.power_used <- t.power_used +. power;
    t.bw_used <- t.bw_used +. bw;
    Some { g_nodes = got; g_power = power; g_bandwidth = bw }
  end
  else None

let release t grant =
  List.iter
    (fun r ->
      if List.mem r t.free || not (List.mem r t.members) then
        invalid_arg (Printf.sprintf "Pool.release: node %d not outstanding" r))
    grant.g_nodes;
  t.free <- List.sort compare (grant.g_nodes @ t.free);
  t.n_free <- t.n_free + List.length grant.g_nodes;
  t.power_used <- Float.max 0.0 (t.power_used -. grant.g_power);
  t.bw_used <- Float.max 0.0 (t.bw_used -. grant.g_bandwidth)

let set_power_budget t w = t.power_budget <- w

let expand_grant t grant ~spec ~extra =
  let per_node_power = spec.Jobspec.power_per_node in
  let by_power =
    if per_node_power <= 0.0 then max_int
    else int_of_float (Float.max 0.0 (t.power_budget -. t.power_used) /. per_node_power)
  in
  let n = min extra (min t.n_free by_power) in
  if n <= 0 then None
  else begin
    let got, rest = take n t.free in
    t.free <- rest;
    t.n_free <- t.n_free - List.length got;
    let power = float_of_int n *. per_node_power in
    t.power_used <- t.power_used +. power;
    Some
      {
        grant with
        g_nodes = grant.g_nodes @ got;
        g_power = grant.g_power +. power;
      }
  end

let shrink_grant t grant ~spec ~release =
  let n = min release (List.length grant.g_nodes - 1) in
  if n <= 0 then grant
  else begin
    let keep = List.filteri (fun i _ -> i < List.length grant.g_nodes - n) grant.g_nodes in
    let returned = List.filteri (fun i _ -> i >= List.length grant.g_nodes - n) grant.g_nodes in
    t.free <- List.sort compare (returned @ t.free);
    t.n_free <- t.n_free + n;
    let power = float_of_int n *. spec.Jobspec.power_per_node in
    t.power_used <- Float.max 0.0 (t.power_used -. power);
    { grant with g_nodes = keep; g_power = Float.max 0.0 (grant.g_power -. power) }
  end

let donate_nodes t n =
  let got, rest = take (min n t.n_free) t.free in
  t.free <- rest;
  t.n_free <- t.n_free - List.length got;
  t.members <- List.filter (fun r -> not (List.mem r got)) t.members;
  t.n_members <- List.length t.members;
  got

let donate_power t w =
  (* An unconstrained budget has unlimited headroom to give. *)
  if t.power_budget = infinity then w
  else begin
    let headroom = Float.max 0.0 (t.power_budget -. t.power_used) in
    let given = Float.min w headroom in
    t.power_budget <- t.power_budget -. given;
    given
  end

let absorb_nodes t nodes =
  t.members <- List.sort_uniq compare (nodes @ t.members);
  t.free <- List.sort_uniq compare (nodes @ t.free);
  t.n_members <- List.length t.members;
  t.n_free <- List.length t.free

let remove_granted_nodes t grant =
  t.members <- List.filter (fun r -> not (List.mem r grant.g_nodes)) t.members;
  t.n_members <- List.length t.members

let release_consumables t grant =
  t.power_used <- Float.max 0.0 (t.power_used -. grant.g_power);
  t.bw_used <- Float.max 0.0 (t.bw_used -. grant.g_bandwidth)

let absorb_power t w =
  if t.power_budget <> infinity then t.power_budget <- t.power_budget +. w

let pp ppf t =
  Format.fprintf ppf "%d/%d nodes free, power %.0f/%s W, bw %.1f/%s GB/s"
    t.n_free t.n_members t.power_used
    (if t.power_budget = infinity then "inf" else Printf.sprintf "%.0f" t.power_budget)
    t.bw_used
    (if t.bw_budget = infinity then "inf" else Printf.sprintf "%.1f" t.bw_budget)
