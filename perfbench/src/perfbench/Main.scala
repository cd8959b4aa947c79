package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import repro.core.ReqSketch

/** Input sizes. `full` is the benchmark; `tiny` only exercises every code
  * path quickly (smoke test).
  */
final case class Sizes(
    ingestN: Int, warmupN: Int,
    serveBase: Int, servePool: Int, tracedRounds: Int,
    rollupChunks: Int, chunkN: Int,
    sparkRows: Long, sparkKeys: Int, sparkPartitions: Int,
    queries: Int, setupReps: Int)

object Sizes {
  val full: Sizes = Sizes(
    ingestN = 1 << 22, warmupN = 1 << 20,
    serveBase = 1 << 20, servePool = 1 << 21, tracedRounds = 256,
    rollupChunks = 256, chunkN = 1 << 14,
    sparkRows = 1L << 21, sparkKeys = 16, sparkPartitions = 8,
    queries = 1024, setupReps = 5)
  val tiny: Sizes = Sizes(
    ingestN = 1 << 15, warmupN = 1 << 12,
    serveBase = 1 << 13, servePool = 1 << 14, tracedRounds = 16,
    rollupChunks = 16, chunkN = 1 << 10,
    sparkRows = 1L << 14, sparkKeys = 16, sparkPartitions = 8,
    queries = 64, setupReps = 2)
}

/** Metric names and units; `BENCHMARK.json` lists the same names. */
object Catalog {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "items_per_s" -> "1/s",
    "items_stored" -> "count",
    "bytes_per_item" -> "B/item")

  private val refs = for {
    impl <- Seq("ds_req_lra", "ds_req_hra", "ds_kll")
    m <- Seq("update_ns" -> "ns", "rank_us" -> "us", "quantile_us" -> "us", "bytes_per_item" -> "B/item")
  } yield (s"ref.$impl.${m._1}", m._2)

  val perLayer: Seq[(String, String)] = Seq(
    "rank_p50_us" -> "us",
    "rank_p99_us" -> "us",
    "quantile_p50_us" -> "us",
    "quantile_p99_us" -> "us",
    "max_rel_err" -> "ratio",
    "RelativeCompactor.compact.count" -> "count",
    "RelativeCompactor.compact.busy_s" -> "s",
    "RelativeCompactor.compact.items_sorted" -> "count",
    "ReqSketch.update.calls" -> "count",
    "ReqSketch.update.insert_ns_p50" -> "ns",
    "ReqSketch.growBound.count" -> "count",
    "ReqSketch.growBound.busy_s" -> "s",
    "ReqSketch.levels" -> "count",
    "ReqSketch.bufferCapacity" -> "count",
    "ReqSketch.rank.calls" -> "count",
    "ReqSketch.rank.busy_s" -> "s",
    "ReqSketch.rank.items_scanned" -> "count",
    "ReqSketch.ranks.ns_per_query" -> "ns",
    "ReqSketch.quantile.calls" -> "count",
    "ReqSketch.quantile.busy_s" -> "s",
    "ReqSketch.coreset.busy_s" -> "s",
    "ReqSketch.quantile.first_after_update_us_p50" -> "us",
    "ReqSketch.quantile.repeat_us_p50" -> "us",
    "ReqSketch.fromBytes.calls" -> "count",
    "ReqSketch.fromBytes.busy_s" -> "s",
    "ReqSketch.toBytes.calls" -> "count",
    "ReqSketch.toBytes.busy_s" -> "s",
    "ReqSketch.toBytes.bytes" -> "B",
    "ReqSketch.merge.calls" -> "count",
    "ReqSketch.merge.busy_s" -> "s",
    "ReqSketch.merge.items_in" -> "count",
    "ReqSketch.merge.items_out" -> "count",
    "ReqSpark.groupby_s" -> "s",
    "ReqSpark.sketchColumn_s" -> "s",
    "ReqSpark.spark.tasks" -> "count",
    "ReqSpark.spark.executor_run_s" -> "s",
    "ReqSpark.spark.executor_cpu_s" -> "s",
    "ReqSpark.spark.gc_s" -> "s",
    "ReqSpark.spark.shuffle_write_bytes" -> "B",
    "ReqSpark.spark.shuffle_read_bytes" -> "B",
    "ReqSpark.spark.result_bytes" -> "B",
    "serve.upper_tail_rel_err" -> "ratio",
    "trace.overhead_ratio" -> "ratio",
    "jvm.gc.count" -> "count",
    "jvm.gc.busy_s" -> "s") ++ refs ++ Seq(
    "ref.spark.count_s" -> "s",
    "ref.spark.kll_sketch_agg_s" -> "s",
    "ref.spark.percentile_approx_s" -> "s")
}

/** GC totals of this JVM so far. */
final case class Gc(count: Long, seconds: Double) {
  def -(o: Gc): Gc = Gc(count - o.count, seconds - o.seconds)
  def toMap: Map[String, Any] = Map("count" -> count, "s" -> seconds)
}

object Gc {
  def now(): Gc = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    Gc(beans.map(_.getCollectionCount.max(0L)).sum, beans.map(_.getCollectionTime.max(0L)).sum / 1e3)
  }
}

/** One run: its settings, checks, trace and the metrics it reports. */
final class Ctx(val workload: String, val seed: Long, val seconds: Double,
                traced: Boolean, val sizes: Sizes, injectWrong: Boolean) {
  val checks = new Checks(0.01, injectWrong)
  val trace: Option[Trace] = if (traced) Some(new Trace) else None
  private val values = mutable.LinkedHashMap.empty[String, Double]
  private val details = mutable.LinkedHashMap.empty[String, Any]
  private val gcStart = Gc.now()
  private val t0 = System.nanoTime()
  private val phases = mutable.ArrayBuffer.empty[(String, Any)]

  /** Wall seconds since the run began, by phase, for the run record. */
  private def mark(phase: String): Unit = phases += phase -> (System.nanoTime() - t0) / 1e9

  def metric(name: String, v: Double): Unit = values(name) = v
  def metrics(m: Map[String, Double]): Unit = m.foreach { case (k, v) => metric(k, v) }
  def detail(name: String, v: Any): Unit = details(name) = v

  /** Runs the set-up `setupReps` times (once when traced) and reports the
    * median time as `setup_s`; returns the last result.
    */
  def setup[A](f: => A): A = {
    val times = new Samples
    var out: Option[A] = None
    val reps = if (traced) 1 else sizes.setupReps
    for (_ <- 0 until reps) {
      out = None // let the previous result be collected first
      val t0 = System.nanoTime()
      out = Some(f)
      times.add((System.nanoTime() - t0) / 1e9)
    }
    metric("setup_s", times.median)
    detail("setup_s_samples", times.values)
    detail("gc_after_setup", (Gc.now() - gcStart).toMap)
    mark("setup_done")
    out.get
  }

  /** The measured section; its GC count and time go to the run record. */
  def timed[A](f: => A): A = {
    val g0 = Gc.now()
    mark("timed_start")
    val out = f
    mark("timed_done")
    detail("gc_timed", (Gc.now() - g0).toMap)
    out
  }

  /** Median and p99 latency with their sample counts. */
  def latencies(rankUs: Samples, quantileUs: Samples): Unit =
    for ((op, s) <- Seq("rank" -> rankUs, "quantile" -> quantileUs)) {
      metric(s"${op}_p50_us", s.median)
      metric(s"${op}_p99_us", s.percentile(0.99))
      detail(s"${op}_samples", s.size)
      detail(s"${op}_samples_beyond_p99", s.beyond(0.99))
    }

  /** Shape of a finished sketch, for the traced run. */
  def stateMetrics(s: ReqSketch): Unit = {
    metric("RelativeCompactor.compact.count", (0 to s.height).map(s.levelState).sum.toDouble)
    metric("ReqSketch.levels", s.height + 1)
    metric("ReqSketch.bufferCapacity", s.bufferCapacity)
  }

  /** The result line and the run record. */
  def result(): (Json.Obj, Json.Obj) = {
    val gc = Gc.now() - gcStart
    mark("done")
    detail("phase_end_s", Json.Obj(phases.toSeq))
    trace.foreach { tr =>
      metric("jvm.gc.count", gc.count.toDouble)
      metric("jvm.gc.busy_s", gc.seconds)
      for ((name, _) <- Catalog.perLayer if !values.contains(name) && tr.sum(name) != 0)
        metric(name, tr.sum(name))
      for (kind <- Seq("first_after_update", "repeat"))
        metric(s"ReqSketch.quantile.${kind}_us_p50", tr.samplesOf(s"quantile.${kind}_us").median)
    }
    val catalog = if (traced) Catalog.perLayer else Catalog.endToEnd
    val missing = if (traced) Nil else catalog.map(_._1).filterNot(values.contains)
    require(missing.isEmpty, s"metrics not measured: ${missing.mkString(", ")}")
    val reported = Json.Obj(catalog.map { case (name, unit) =>
      name -> Json.Obj(Seq("value" -> values.getOrElse(name, 0.0), "unit" -> unit))
    })
    val names = catalog.map(_._1).toSet
    val line = Seq(
      "correct" -> (checks.failed == 0),
      "attempted" -> checks.attempted,
      "failed" -> checks.failed,
      "metrics" -> reported)
    val record = line ++ Seq(
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "sizes" -> Json.Obj(sizes.productElementNames.zip(sizes.productIterator).toSeq),
      "env" -> Ctx.env,
      "gc_total" -> gc.toMap,
      "details" -> Json.Obj(details.toSeq),
      "other_metrics" -> Json.Obj(values.toSeq.filterNot(kv => names(kv._1))),
      "failures" -> checks.failures,
      "spans" -> trace.map(_.spans).getOrElse(Nil))
    (Json.Obj(line), Json.Obj(record))
  }
}

object Ctx {
  def env: Map[String, Any] = Map(
    "cores" -> Runtime.getRuntime.availableProcessors,
    "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")} (${sys.props("java.vendor")})",
    "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq,
    "max_heap_bytes" -> Runtime.getRuntime.maxMemory,
    "spark_version" -> org.apache.spark.SPARK_VERSION,
    "scala_version" -> scala.util.Properties.versionNumberString,
    "os" -> s"${sys.props("os.name")} ${sys.props("os.version")} ${sys.props("os.arch")}")
}

/** Entry point: `perfbench.Main --workload W --seed N --seconds S --trace 0|1
  * [--size full|tiny] [--inject-wrong-answer 0|1] [--record FILE]`.
  */
object Main {
  val workloads: Seq[String] = Seq("ingest", "serve", "rollup", "spark-groupby")

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing $k"))
    val workload = opt("--workload")
    require(workloads.contains(workload), s"unknown workload $workload")
    val ctx = new Ctx(workload, opt("--seed").toLong, opt("--seconds").toDouble,
      opt("--trace") == "1",
      if (opts.get("--size").contains("tiny")) Sizes.tiny else Sizes.full,
      opts.get("--inject-wrong-answer").contains("1"))
    workload match {
      case "ingest" => new Local(ctx).ingest()
      case "serve" => new Local(ctx).serve()
      case "rollup" => new Local(ctx).rollup()
      case "spark-groupby" => SparkGroupBy.run(ctx)
    }
    val (line, record) = ctx.result()
    opts.get("--record").foreach { path =>
      java.nio.file.Files.write(java.nio.file.Paths.get(path), Json(record).getBytes("UTF-8"))
    }
    for (f <- ctx.checks.failures) println(s"FAILED: $f")
    println(Json(line))
  }
}

/** Minimal JSON rendering for the result line and the run record. */
object Json {
  /** A JSON object that keeps its field order. */
  final case class Obj(fields: Seq[(String, Any)])

  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => apply(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => apply(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => apply(Obj(m.toSeq.map { case (k, x) => k.toString -> x }))
    case Obj(fields) => fields.map { case (k, x) => s"${quote(k)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }
}
