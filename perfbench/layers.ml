(* Attribution of stack frames to layers. A layer is one of the repo's
   libraries under lib/; the simulator's engine and its network model
   share lib/sim, so lib/sim/net.ml is split out as its own layer. *)

let self_layers =
  [ "engine"; "net"; "session"; "kvs"; "json"; "sha1"; "modules"; "core"; "util"; "other" ]

(* [lib_dir file] is [Some (dir, basename)] when [file] lies under a
   [lib/<dir>/] directory, wherever that directory sits in the path. *)
let lib_dir file =
  let n = String.length file in
  let rec scan i =
    if i + 4 > n then None
    else if String.sub file i 4 = "lib/" && (i = 0 || file.[i - 1] = '/') then
      match String.index_from_opt file (i + 4) '/' with
      | Some j -> Some (String.sub file (i + 4) (j - i - 4), Filename.basename file)
      | None -> None
    else scan (i + 1)
  in
  scan 0

let of_file file =
  match lib_dir file with
  | Some ("sim", "net.ml") -> Some "net"
  | Some ("sim", _) -> Some "engine"
  | Some ("cmb", _) -> Some "session"
  | Some ((("kvs" | "json" | "sha1" | "modules" | "core" | "util") as dir), _) -> Some dir
  | Some _ | None -> None

(* A sample's self time goes to the innermost frame under lib/: a
   stdlib [Hashtbl] frame called from the KVS is KVS time. Frames of
   libraries the benchmark does not drive (lib/trace, lib/kap, ...) and
   samples with no lib/ frame at all are [other]. *)
let self_of_frames files =
  let rec first = function
    | [] -> "other"
    | f :: rest -> (
      match lib_dir f with
      | None -> first rest
      | Some _ -> ( match of_file f with Some l -> l | None -> "other"))
  in
  first files

(* Every layer with at least one frame on the stack, each once. *)
let inclusive_of_frames files =
  List.sort_uniq compare (List.filter_map of_file files)
