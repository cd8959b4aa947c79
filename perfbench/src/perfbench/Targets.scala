package perfbench

import org.apache.datasketches.kll.KllDoublesSketch
import org.apache.datasketches.quantilescommon.QuantileSearchCriteria.INCLUSIVE
import org.apache.datasketches.req.{ReqSketch => DsReqSketch}
import repro.core.ReqSketch

/** The calls a workload loop makes on a sketch. The REQ sketch under test
  * and the DataSketches reference rows all run through the same loops.
  */
trait Target {
  def update(x: Double): Unit
  /** Estimated |{x ≤ y}| as a count. */
  def rank(y: Double): Double
  def quantile(phi: Double): Double
  def serializedBytes: Int
  def retained: Int
}

/** The sketch under test, untraced. */
final class ReqTarget(val s: ReqSketch) extends Target {
  def update(x: Double): Unit = s.update(x)
  def rank(y: Double): Double = s.rank(y).toDouble
  def quantile(phi: Double): Double = s.quantile(phi)
  def serializedBytes: Int = ReqSketch.toBytes(s).length
  def retained: Int = s.itemsStored
}

/** The sketch under test with every call traced from the outside.
  *
  * An update is classified by what it changed: `nBound` moved (N-squaring,
  * `growBound`), the level-0 schedule state moved (a compaction cascade), or
  * neither (insert only). Cascade updates are charged to the compactor
  * minus the median insert-only update; the items each cascade sorted are
  * reconstructed from `levelSizes` before and after.
  */
final class TracedReq(val s: ReqSketch, tr: Trace, stats: UpdateStats) extends Target {
  private var bound = s.nBound
  private var sizes = s.levelSizes.toArray
  private var states = Array.tabulate(s.height + 1)(s.levelState)
  private var insertsSinceSnapshot = 0
  private var updatedSinceQuery = true

  def update(x: Double): Unit = {
    val t0 = System.nanoTime()
    s.update(x)
    val dt = System.nanoTime() - t0
    stats.updates += 1
    updatedSinceQuery = true
    if (s.nBound != bound) {
      stats.growCalls += 1; stats.growNs += dt; snapshot()
    } else if (s.levelState(0) != states(0)) {
      stats.cascadeCalls += 1; stats.cascadeNs += dt
      stats.itemsSorted += sortedInCascade(); snapshot()
    } else {
      stats.insertNs.add(dt); insertsSinceSnapshot += 1
    }
  }

  private def snapshot(): Unit = {
    bound = s.nBound
    sizes = s.levelSizes.toArray
    states = Array.tabulate(s.height + 1)(s.levelState)
    insertsSinceSnapshot = 0
  }

  /** Items sorted by the cascade of the update just made. Level h sorts
    * its whole buffer (its size before plus what came from below); what
    * came from below is exact where the level above did not compact, and
    * otherwise half of what the level below removed.
    */
  private def sortedInCascade(): Long = {
    val after = s.levelSizes.toArray
    val afterStates = Array.tabulate(after.length)(s.levelState)
    def before(h: Int): Long =
      if (h == 0) sizes(0) + insertsSinceSnapshot else if (h < sizes.length) sizes(h) else 0
    def compacted(h: Int): Boolean =
      h < after.length && afterStates(h) != (if (h < states.length) states(h) else 0L)
    var inflow = 1L
    var sorted = 0L
    var h = 0
    while (compacted(h)) {
      val total = before(h) + inflow
      sorted += total
      inflow =
        if (compacted(h + 1)) (total - after(h) + 1) / 2
        else if (h + 1 < after.length) after(h + 1) - before(h + 1)
        else 0
      h += 1
    }
    sorted
  }

  def rank(y: Double): Double = {
    val t0 = System.nanoTime()
    val r = s.rank(y)
    tr.add("ReqSketch.rank.busy_s", (System.nanoTime() - t0) / 1e9)
    tr.add("ReqSketch.rank.calls", 1)
    tr.add("ReqSketch.rank.items_scanned", s.itemsStored)
    r.toDouble
  }

  /** Times `quantile`, split into the first call after an update and
    * repeats.
    */
  def quantile(phi: Double): Double = {
    val t0 = System.nanoTime()
    val q = s.quantile(phi)
    val dt = System.nanoTime() - t0
    tr.add("ReqSketch.quantile.busy_s", dt / 1e9)
    tr.add("ReqSketch.quantile.calls", 1)
    tr.sample(if (updatedSinceQuery) "quantile.first_after_update_us" else "quantile.repeat_us", dt / 1e3)
    updatedSinceQuery = false
    q
  }

  def serializedBytes: Int = Serde.toBytes(s, Some(tr)).length
  def retained: Int = s.itemsStored
}

/** Update timings gathered by one or more [[TracedReq]] targets. */
final class UpdateStats {
  val insertNs = new NsHistogram()
  var updates, cascadeCalls, cascadeNs, growCalls, growNs, itemsSorted = 0L

  def metrics: Map[String, Double] = {
    val median = insertNs.median
    Map(
      "ReqSketch.update.calls" -> updates.toDouble,
      "ReqSketch.update.insert_ns_p50" -> median.toDouble,
      "RelativeCompactor.compact.busy_s" -> (cascadeNs - cascadeCalls * median) / 1e9,
      "RelativeCompactor.compact.items_sorted" -> itemsSorted.toDouble,
      "ReqSketch.growBound.count" -> growCalls.toDouble,
      "ReqSketch.growBound.busy_s" -> growNs / 1e9)
  }
}

/** `toBytes`/`fromBytes`, traced when a trace is given. */
object Serde {
  def toBytes(s: ReqSketch, tr: Option[Trace]): Array[Byte] = tr match {
    case Some(t) =>
      val b = t.span("ReqSketch.toBytes")(ReqSketch.toBytes(s))
      t.add("ReqSketch.toBytes.bytes", b.length)
      b
    case None => ReqSketch.toBytes(s)
  }

  def fromBytes(b: Array[Byte], tr: Option[Trace]): ReqSketch = tr match {
    case Some(t) => t.span("ReqSketch.fromBytes")(ReqSketch.fromBytes(b))
    case None => ReqSketch.fromBytes(b)
  }
}

/** DataSketches `ReqSketch` (floats; default k = 12) in low-rank (LRA) or
  * high-rank (HRA) accuracy mode.
  */
final class DsReqTarget(hra: Boolean) extends Target {
  private val sk = DsReqSketch.builder().setHighRankAccuracy(hra).build()
  def update(x: Double): Unit = sk.update(x.toFloat)
  def rank(y: Double): Double = sk.getRank(y.toFloat, INCLUSIVE) * sk.getN
  def quantile(phi: Double): Double = sk.getQuantile(phi, INCLUSIVE).toDouble
  def serializedBytes: Int = sk.toByteArray.length
  def retained: Int = sk.getNumRetained
}

/** DataSketches `KllDoublesSketch` (default k = 200). */
final class KllTarget extends Target {
  private val sk = KllDoublesSketch.newHeapInstance()
  def update(x: Double): Unit = sk.update(x)
  def rank(y: Double): Double = sk.getRank(y, INCLUSIVE) * sk.getN
  def quantile(phi: Double): Double = sk.getQuantile(phi, INCLUSIVE)
  def serializedBytes: Int = sk.toByteArray.length
  def retained: Int = sk.getNumRetained
}
