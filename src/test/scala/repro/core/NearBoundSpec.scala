package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, Future}
import repro.exp.{Harness, Workloads}

/** Accuracy where the error sits near ε: `FixedK(12)` at ε = 0.01 on n =
  * 2^20, so a broken compactor (a fixed coin, a schedule stuck at one
  * section, a merge that drops the level states) shows up as error, not only
  * as changed state. For each arrival order and two builds, streamed and a
  * left-deep merge of 16 decoded chunk sketches, the gates bound the median
  * and the max over seeds of each sketch's worst relative error on
  * `Workloads.rankGrid`.
  */
class NearBoundSpec extends AnyFunSuite {

  private val (eps, delta, profile) = (0.01, 0.05, FixedK(12))
  private val n = 1 << 20
  private val chunks = 16
  private val seeds = Seq.range(1L, 25L)

  private def sketch(seed: Long): ReqSketch = ReqSketch(eps, delta, profile, seed)

  private def streamed(data: Array[Double], seed: Long): ReqSketch = {
    val s = sketch(seed)
    s.updateAll(data)
    s
  }

  /** The stream cut into `chunks` runs, each sketched with its own seed and
    * decoded from its bytes, then merged left to right.
    */
  private def merged(data: Array[Double], seed: Long): ReqSketch =
    data.grouped(n / chunks).zipWithIndex.map { case (part, i) =>
      ReqSketch.fromBytes(ReqSketch.toBytes(streamed(part, ReqSpark.mixSeed(seed, i))))
    }.reduce(_ merge _)

  private val builds = Seq[(String, (Array[Double], Long) => ReqSketch)](
    "streamed" -> streamed, "merged" -> merged)

  /** Worst relative error on the rank grid, per (build, order), one per
    * seed. Seeds run in parallel on the global pool, one thread per core.
    */
  private lazy val worst: Map[(String, String), Seq[Double]] = {
    val perSeed = Future.traverse(seeds) { seed =>
      Future {
        val base = Workloads.uniform(n, seed)
        val truth = Harness.gridTruth(base)
        for (order <- Workloads.orders; data = Workloads.ordered(base, order); (build, make) <- builds)
          yield (build, order) -> Harness.errProfile(make(data, seed).rank, truth).maxRel
      }
    }
    Await.result(perSeed, Duration.Inf).flatten.groupMap(_._1)(_._2)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    (s((s.size - 1) / 2) + s(s.size / 2)) / 2
  }

  /** The gates, fixed before any mutant ran. Worst error over the 24 seeds
    * when they were set, as median / max (sketches over ε):
    *
    * | order    | streamed              | merged                |
    * |----------|-----------------------|-----------------------|
    * | random   | 0.0061 / 0.0081 (0)   | 0.0039 / 0.0059 (0)   |
    * | sorted   | 0.0053 / 0.0126 (3)   | 0.0059 / 0.0117 (2)   |
    * | reversed | 0.0049 / 0.0088 (0)   | 0.0039 / 0.0078 (0)   |
    * | zoomin   | 0.0088 / 0.0117 (6)   | 0.0078 / 0.0156 (6)   |
    *
    * Up to 21 grid ranks each fail with probability δ, so some sketches
    * exceed ε; the bounds leave room for other coins of the same law.
    */
  private val (medianBound, maxBound) = (1.25 * eps, 2.5 * eps)

  for (build <- builds.map(_._1); order <- Workloads.orders)
    test(s"$build, $order order: median worst error <= 1.25 eps and max <= 2.5 eps") {
      val errs = worst((build, order))
      info(f"median ${median(errs)}%.4f, max ${errs.max}%.4f, over eps ${errs.count(_ > eps)}")
      assert(median(errs) <= medianBound && errs.max <= maxBound,
        f"median ${median(errs)}%.4f, max ${errs.max}%.4f")
    }
}
