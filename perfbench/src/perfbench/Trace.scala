package perfbench

import scala.collection.mutable

/** In-memory tracing for the traced run (`--trace 1`).
  *
  * Spans are recorded from the benchmark's side of each call into
  * `repro.core`; nothing inside the program is instrumented. Calls that take
  * ~100 ns to a few µs (update, rank) are aggregated into counters and
  * histograms instead of one span object per call; coarse calls (passes,
  * merges, Spark jobs) are kept as span records with their parent and are
  * written to the run record at the end.
  */
final class Trace {
  private val sums = mutable.LinkedHashMap.empty[String, Double]
  private val samples = mutable.HashMap.empty[String, Samples]
  private val spanLog = mutable.ArrayBuffer.empty[Trace.Span]
  private val open = mutable.Stack.empty[Int]
  private val maxLogged = 4096

  /** Add `v` to the counter `name`. */
  def add(name: String, v: Double): Unit = sums(name) = sums.getOrElse(name, 0.0) + v

  def sum(name: String): Double = sums.getOrElse(name, 0.0)

  def sample(name: String, v: Double): Unit =
    samples.getOrElseUpdate(name, new Samples).add(v)

  def samplesOf(name: String): Samples = samples.getOrElse(name, new Samples)

  /** Time `f` as a coarse span: adds to `<name>.calls` and `<name>.busy_s`,
    * and logs a span record whose parent is the innermost open span.
    */
  def span[A](name: String)(f: => A): A = {
    val id = spanLog.size
    val parent = open.headOption.getOrElse(-1)
    open.push(id)
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      open.pop()
      add(name + ".calls", 1)
      add(name + ".busy_s", (t1 - t0) / 1e9)
      if (spanLog.size < maxLogged) spanLog += Trace.Span(id, parent, name, t0, t1)
    }
  }

  /** Span records, oldest first, with times relative to the first span. */
  def spans: Seq[Map[String, Any]] = {
    val base = spanLog.headOption.map(_.start).getOrElse(0L)
    spanLog.toSeq.map(s => Map(
      "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_us" -> (s.start - base) / 1e3, "end_us" -> (s.end - base) / 1e3))
  }
}

object Trace {
  final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long)
}

/** A growable list of samples with exact percentiles. */
final class Samples {
  private var buf = new Array[Double](1024)
  private var n = 0

  def add(v: Double): Unit = {
    if (n == buf.length) buf = java.util.Arrays.copyOf(buf, 2 * n)
    buf(n) = v; n += 1
  }

  def size: Int = n

  def values: Seq[Double] = buf.take(n).toSeq

  /** Nearest-rank percentile: the ⌈q·n⌉-th smallest sample (0 when empty). */
  def percentile(q: Double): Double = {
    if (n == 0) return 0.0
    val sorted = java.util.Arrays.copyOf(buf, n)
    java.util.Arrays.sort(sorted)
    sorted(math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1)))
  }

  def median: Double = percentile(0.5)

  /** Samples strictly above the q-percentile's position. */
  def beyond(q: Double): Int = n - math.max(1, math.ceil(q * n).toInt)
}

/** Histogram of integer nanosecond timings at 1 ns resolution up to
  * `limit`, for the per-update timings of the traced run.
  */
final class NsHistogram(limit: Int = 1 << 16) {
  private val counts = new Array[Long](limit + 1)
  private var n = 0L

  def add(ns: Long): Unit = {
    counts(if (ns < 0) 0 else if (ns > limit) limit else ns.toInt) += 1
    n += 1
  }

  def median: Long = {
    if (n == 0) return 0L
    val target = (n + 1) / 2
    var acc = 0L
    var i = 0
    while (i <= limit) { acc += counts(i); if (acc >= target) return i; i += 1 }
    limit
  }
}
