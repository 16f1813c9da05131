(** Reproduction harness: one entry point per figure of the paper's
    evaluation (Section 5). Each runner builds a fresh simulated testbed
    (128 MB server, 360 Mb/s aggregate link, 1999 cost model), runs the
    workload, and returns the figure's series; [print_*] renders the
    table and an ASCII plot.

    [scale] trades fidelity for wall-clock time: it scales measurement
    windows and trace-replay lengths (1.0 = the defaults used for the
    recorded results; smaller = quicker, noisier). *)

type point = { x : float; mbps : float }
type series = { label : string; points : point list }

val paper_sizes : int list
(** The file sizes of Figs. 3-6: 500 B ... 200 KB. *)

(** {2 Single-file and CGI bandwidth sweeps (Figs. 3-6)} *)

val fig3 : ?scale:float -> unit -> series list
(** HTTP/1.0, single cached file, 40 clients: Flash-Lite / Flash /
    Apache bandwidth vs. document size. *)

val fig4 : ?scale:float -> unit -> series list
(** Same with persistent (HTTP/1.1) connections. *)

val fig5 : ?scale:float -> unit -> series list
(** FastCGI dynamic documents over non-persistent connections. *)

val fig6 : ?scale:float -> unit -> series list
(** FastCGI over persistent connections. *)

(** {2 Trace workloads (Figs. 7-11)} *)

val fig7 : unit -> (string * string list list) list
(** Trace characteristics tables (one per trace): header rows are
    implicit; each row is [top-N files; %requests; %bytes] plus a
    totals table row. *)

val fig8 : ?scale:float -> unit -> (string * (string * float) list) list
(** Overall trace performance: for each trace, (server, Mb/s) bars;
    64 clients replaying the log. *)

val fig9 : unit -> string list list
(** 150 MB MERGED subtrace characteristics rows. *)

val fig10 : ?scale:float -> unit -> series list
(** MERGED subtrace: bandwidth vs. data-set size (15-150 MB),
    SpecWeb-style random sampling, 64 clients. *)

val fig11 : ?scale:float -> unit -> series list
(** Optimization ablation on the same sweep: Flash-Lite with
    {GDS,LRU} x {checksum cache on,off}, plus Flash. *)

(** {2 WAN effects (Fig. 12)} *)

val fig12 : ?scale:float -> unit -> series list
(** Throughput vs. round-trip delay (LAN, 5..150 ms); clients scale
    64 -> 900 with delay; 120 MB data set. *)

(** {2 Converted applications (Fig. 13)} *)

type app_result = {
  app : string;
  posix_s : float;  (** unmodified runtime, simulated seconds *)
  iolite_s : float;
  verified : bool;  (** both variants produced identical output/counts *)
}

val fig13 : ?scale:float -> unit -> app_result list

(** {2 Extension: the sendfile ablation (Section 6.7)} *)

val ablation_sendfile : ?scale:float -> unit -> series list
(** The Fig. 3 sweep with a third server between Flash and Flash-Lite:
    Flash using the monolithic [sendfile] syscall — copies eliminated,
    checksums still recomputed per transmission. Separates the value of
    copy avoidance from the value of IO-Lite's cross-subsystem checksum
    cache. *)

val ablation_cgi11 : ?scale:float -> unit -> series list
(** CGI 1.1 (fork per request) vs FastCGI, each under IO-Lite and the
    conventional system — quantifying the Section 5.3 remark that
    FastCGI "amortizes the cost of forking" while IO-Lite removes the
    remaining IPC overheads. *)

(** {2 Rendering} *)

val print_series : title:string -> x_label:string -> series list -> unit
val print_fig7 : unit -> unit
val print_fig8 : ?scale:float -> unit -> unit
val print_fig9 : unit -> unit
val print_fig13 : ?scale:float -> unit -> unit

val run_all : ?scale:float -> unit -> unit
(** Every figure, in order, printed to stdout. *)

(** {2 Observability} *)

val set_observability :
  ?metrics:bool -> ?sink:Iolite_obs.Trace.Sink.t -> unit -> unit
(** Configure the harness for subsequent runs: with [metrics] every
    experiment point prints its kernel's registry and request-latency
    summary after measuring; with [sink] every kernel is created with
    tracing armed and registered in the sink (write it out after the
    runs). Defaults reset both. *)

type smoke_result = {
  sm_trace_json : string;  (** Chrome trace-event JSON of the run *)
  sm_metrics : (string * int) list;  (** final registry snapshot *)
  sm_cold : (string * int) list;  (** Metrics.diff over the cold phase *)
  sm_warm : (string * int) list;  (** Metrics.diff over the warm phase *)
  sm_latency : Iolite_util.Stats.summary option;
  sm_cksum : int * int * int;  (** Flash.cksum_stats at the end *)
  sm_requests : int;
}

val smoke : ?tracing:bool -> unit -> smoke_result
(** A small, fully deterministic Flash-Lite run (static files + FastCGI,
    persistent connections, two measurement phases) with tracing armed:
    the CI smoke test, the trace-determinism test, and [iolite smoke]
    all run this. Two calls produce byte-identical [sm_trace_json]. *)

(** {2 Extension sweeps}

    The C1M connection-scale sweep, the async disk pipeline under
    memory pressure, clustered delayed write-back with the CAWL regimes
    and the crash harness, and the NVMM second tier's working-set sweep
    with its latency probe — each one {!Scenario.t}. *)

val scenarios : Scenario.t list
(** [scale], [async], [write], [tier], in that order. *)

val write_sweep : unit -> Scenario.row list
(** The [write] scenario's entries without the crash harness. First the
    clustering headline ["delayed"]: 2 MB of 4 KB sequential writes, a
    rewrite of the first eighth before any flush (superseding parked
    extents), then [fsync] — compare ["disk_writes"] with ["writes"].
    Then the CAWL points: 40 bursts of 128 KB ... 2 MB every 0.1 s
    against a small dirty hard limit under flush intervals 0.2 s and
    0.8 s, at memory speed below the knee and drain speed past it. *)

val tier_probe_run : unit -> Scenario.row
(** The [tier] scenario's ["probe"] row: on a 16 MB machine a 4 KB file
    read cold (disk positioning dominates), warm (DRAM), and after a
    forced demotion (pure NVMM transfer), then a write + [fsync] that
    stages through the tier. *)
