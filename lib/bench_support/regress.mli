(** Perf-regression detector: compare the current [BENCH_*.json]
    trajectories against a committed baseline with tolerance bands.

    Indicators per family: wall-clock speedups per payload size (wide
    band — real time is noisy), the deterministic mem figures per lane
    (host copies per wire byte, overall and receive, on native lanes;
    minor words on every lane; all lower-is-better) and the
    disabled-instrumentation allocation figure,
    and the deterministic stream gate ratio and per-point goodputs.  An
    indicator present in the baseline but absent from the current run is
    itself a regression (a silently dropped benchmark point); a family
    file absent from the baseline directory is skipped. *)

(** Minimal JSON reader for the hand-rolled writers in this repo (the
    container has no JSON library). *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_string : string -> (json, string) result
val parse_file : string -> (json, string) result
val member : string -> json -> json option

type verdict = {
  v_key : string;
  v_baseline : float;
  v_current : float;
  v_tol : float;
  v_ok : bool;
}

type report = {
  verdicts : verdict list;
  missing_current : string list;
  files_compared : string list;
  files_skipped : string list;
}

val run : baseline_dir:string -> current_dir:string -> (report, string) result
(** Compare each committed [BENCH_*.json] under [baseline_dir] against
    its counterpart under [current_dir].  A band of 10% holds the
    deterministic mem/stream indicators, one of 30% the noisy wall-clock
    speedups.  [Error] means a comparison could not even run (current
    file missing or unparsable — treated as failure by the CLI). *)

val regressions : report -> verdict list
val passed : report -> bool
(** No regressed indicator and no baseline indicator missing from the
    current run. *)

val report_lines : report -> string list
