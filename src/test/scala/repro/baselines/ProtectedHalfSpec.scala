package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Practical, ReqSketch}
import repro.exp.{Harness, Workloads}

/** The "simple approach" baseline: correct relative error when sized by its
  * quadratic worst-case rule, but at a quadratically larger space cost than
  * the REQ sketch — the separation claimed in Section 1.
  */
class ProtectedHalfSpec extends AnyFunSuite {

  test("constructor rejects odd or tiny capacity") {
    intercept[IllegalArgumentException](ProtectedHalfSketch(7))
    intercept[IllegalArgumentException](ProtectedHalfSketch(2))
  }

  test("capacityFor is even and ~2/eps^2") {
    assert(ProtectedHalfSketch.capacityFor(0.1) == 200)
    assert(ProtectedHalfSketch.capacityFor(0.05) == 800)
    val c = ProtectedHalfSketch.capacityFor(0.033)
    assert(c % 2 == 0 && c >= 2 / (0.033 * 0.033))
  }

  test("small streams are exact") {
    val s = ProtectedHalfSketch(64, seed = 1)
    val xs = Workloads.uniform(50, 2)
    s.updateAll(xs)
    xs.sorted.zipWithIndex.foreach { case (x, i) => assert(s.rank(x) == i + 1) }
  }

  test("total weight equals n in pure streaming (even compactions)") {
    val s = ProtectedHalfSketch(128, seed = 3)
    s.updateAll(Workloads.uniform(100000, 4))
    assert(s.rank(Double.MaxValue) == 100000)
  }

  for (order <- Workloads.orders) {
    test(s"relative error <= eps with worst-case sizing (order=$order)") {
      val eps = 0.1
      val data = Workloads.ordered(Workloads.uniform(80000, 5), order)
      val s = ProtectedHalfSketch.forEps(eps, seed = 6)
      s.updateAll(data)
      val p = Harness.errProfile(s.rank(_), data)
      assert(p.maxRel <= eps, f"order=$order maxRel=${p.maxRel}%.4f")
    }
  }

  test("NaN is skipped: n counts the other items and rank agrees") {
    val rng = new java.util.Random(14)
    val data = Array.fill(20000)(if (rng.nextInt(10) == 0) Double.NaN else rng.nextDouble())
    val s = ProtectedHalfSketch(64, seed = 15)
    s.updateAll(data)
    assert(s.n == data.count(!_.isNaN))
    assert(s.rank(Double.MaxValue) == s.n)
  }

  test("merge combines counts") {
    val data = Workloads.uniform(60000, 7)
    val (l, r) = data.splitAt(30000)
    val a = ProtectedHalfSketch(256, seed = 8); a.updateAll(l)
    val b = ProtectedHalfSketch(256, seed = 9); b.updateAll(r)
    val m = a.merge(b)
    assert(m.n == 60000)
    assert(Harness.errProfile(m.rank(_), data).maxRel <= 0.2)
  }

  test("self-merge throws and leaves the sketch unchanged") {
    val s = ProtectedHalfSketch(64, seed = 16)
    s.updateAll(Workloads.uniform(5000, 17))
    val (n, items) = (s.n, s.itemsStored)
    intercept[IllegalArgumentException](s.merge(s))
    assert(s.n == n && s.itemsStored == items)
  }

  test("merge returns the taller input with n summed") {
    val short = ProtectedHalfSketch(64, seed = 18); short.updateAll(Workloads.uniform(100, 19))
    val tall = ProtectedHalfSketch(64, seed = 20); tall.updateAll(Workloads.uniform(50000, 21))
    assert(short.height < tall.height)
    val m = short.merge(tall)
    assert(m eq tall)
    assert(m.n == 50100)
  }

  test("merge rejects mismatched capacity") {
    intercept[IllegalArgumentException](
      ProtectedHalfSketch(64).merge(ProtectedHalfSketch(128)))
  }

  test("protected half keeps the lowest ranks exact on sorted input") {
    val s = ProtectedHalfSketch(200, seed = 10)
    val data = (1 to 50000).map(_.toDouble).toArray
    s.updateAll(data)
    (1 to 100).foreach(r => assert(s.rank(r.toDouble) == r))
  }

  test("space separation: PH/REQ space ratio grows as eps shrinks") {
    // The claimed separation is asymptotic in 1/eps (Θ(ε⁻²) vs Θ̃(ε⁻¹)):
    // at moderate n the observable is the *ratio trend*, which T4 measures
    // at full scale — here we check it at mini scale.
    val n = 150000
    val data = Workloads.uniform(n, 11)
    def ratio(eps: Double): Double = {
      val ph = ProtectedHalfSketch.forEps(eps, seed = 12)
      ph.updateAll(data)
      val req = ReqSketch(eps, 0.1, Practical, seed = 13)
      req.updateAll(data)
      ph.itemsStored.toDouble / req.itemsStored
    }
    val (coarse, fine) = (ratio(0.1), ratio(0.02))
    assert(fine > coarse, s"ratio at eps=0.02 ($fine) not above eps=0.1 ($coarse)")
  }

  // ------------------------------------------------------------ golden state
  //
  // Items stored, height and a digest of the rank answers for fixed seeds,
  // recorded from the sketch's first implementation (its own boxed levels).
  // A refactor that keeps the algorithm must reproduce them exactly.

  /** SHA-256 (first 16 hex digits) of the ranks of the data values at the
    * `rankGrid` positions.
    */
  private def rankDigest(s: ProtectedHalfSketch, data: Array[Double]): String = {
    val sorted = data.sorted
    val bb = java.nio.ByteBuffer.allocate(8 * 64)
    Workloads.rankGrid(data.length.toLong).foreach(r => bb.putLong(s.rank(sorted((r - 1).toInt))))
    val md = java.security.MessageDigest.getInstance("SHA-256")
    md.update(bb.array(), 0, bb.position())
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private val golden: Map[String, String] = Map(
    "B=64/random/seed=1" -> "items=400 height=11 ranks=66c8d8117879a1ba",
    "B=64/sorted/seed=1" -> "items=400 height=11 ranks=3c9b21c7bfef8345",
    "B=64/reversed/seed=1" -> "items=400 height=11 ranks=8e67cce9415c11db",
    "B=64/zoomin/seed=1" -> "items=400 height=11 ranks=cb03d083831626ec",
    "B=64/merge2/seed=1" -> "items=384 height=11 ranks=f049208724f989a9",
    "B=64/random/seed=2" -> "items=400 height=11 ranks=eaab6fb5b3307914",
    "B=64/sorted/seed=2" -> "items=400 height=11 ranks=fb1e8c2246f6724f",
    "B=64/reversed/seed=2" -> "items=400 height=11 ranks=8e67cce9415c11db",
    "B=64/zoomin/seed=2" -> "items=400 height=11 ranks=8fbd6b15269b28fd",
    "B=64/merge2/seed=2" -> "items=384 height=11 ranks=d06b70b12f45ca02",
    "B=200/random/seed=1" -> "items=1372 height=9 ranks=7fb2a669ad9869ef",
    "B=200/sorted/seed=1" -> "items=1372 height=9 ranks=69cd6a2a31d228c7",
    "B=200/reversed/seed=1" -> "items=1372 height=9 ranks=8e67cce9415c11db",
    "B=200/zoomin/seed=1" -> "items=1372 height=9 ranks=f0e40fe8ba1b9291",
    "B=200/merge2/seed=1" -> "items=1056 height=9 ranks=7df87c85eb783a4f",
    "B=200/random/seed=2" -> "items=1372 height=9 ranks=c85611067030a4e6",
    "B=200/sorted/seed=2" -> "items=1372 height=9 ranks=add3dae022af8d33",
    "B=200/reversed/seed=2" -> "items=1372 height=9 ranks=8e67cce9415c11db",
    "B=200/zoomin/seed=2" -> "items=1372 height=9 ranks=54483960ebebdb11",
    "B=200/merge2/seed=2" -> "items=1056 height=9 ranks=b9026f873dc54783",
    "B=800/random/seed=1" -> "items=3872 height=7 ranks=e777249cd978252b",
    "B=800/sorted/seed=1" -> "items=3872 height=7 ranks=0c8db56aff8608d9",
    "B=800/reversed/seed=1" -> "items=3872 height=7 ranks=8e67cce9415c11db",
    "B=800/zoomin/seed=1" -> "items=3872 height=7 ranks=e3fea66d7915796d",
    "B=800/merge2/seed=1" -> "items=3427 height=7 ranks=cf41639535c97214",
    "B=800/random/seed=2" -> "items=3872 height=7 ranks=5ade3cc80f4eebfb",
    "B=800/sorted/seed=2" -> "items=3872 height=7 ranks=0c8db56aff8608d9",
    "B=800/reversed/seed=2" -> "items=3872 height=7 ranks=8e67cce9415c11db",
    "B=800/zoomin/seed=2" -> "items=3872 height=7 ranks=9fa61bbb22117bdc",
    "B=800/merge2/seed=2" -> "items=3427 height=7 ranks=983ebf0cf2e2c0ee",
    "B=1252/random/seed=1" -> "items=5559 height=7 ranks=8e2580fc84cb8273",
    "B=1252/sorted/seed=1" -> "items=5559 height=7 ranks=80e3109c263423b3",
    "B=1252/reversed/seed=1" -> "items=5559 height=7 ranks=8e67cce9415c11db",
    "B=1252/zoomin/seed=1" -> "items=5559 height=7 ranks=e84efa70b13c15c5",
    "B=1252/merge2/seed=1" -> "items=4785 height=7 ranks=bb2864beb60215fd",
    "B=1252/random/seed=2" -> "items=5559 height=7 ranks=1f72b3d355ad3c46",
    "B=1252/sorted/seed=2" -> "items=5559 height=7 ranks=9001966869a3c830",
    "B=1252/reversed/seed=2" -> "items=5559 height=7 ranks=8e67cce9415c11db",
    "B=1252/zoomin/seed=2" -> "items=5559 height=7 ranks=e16a71ac72ae41ad",
    "B=1252/merge2/seed=2" -> "items=4785 height=7 ranks=24d109f23d13d33e")

  for (b <- Seq(64, 200, 800, 1252); seed <- 1 to 2; mode <- Workloads.orders :+ "merge2") {
    val name = s"B=$b/$mode/seed=$seed"
    test(s"golden sketch state: $name") {
      val base = Workloads.uniform(1 << 17, 100L + seed)
      val (s, data) = mode match {
        case "merge2" =>
          val (l, r) = base.splitAt(base.length / 2)
          val x = ProtectedHalfSketch(b, seed = seed); x.updateAll(l)
          val y = ProtectedHalfSketch(b, seed = seed + 10); y.updateAll(r)
          (x.merge(y), base)
        case order =>
          val data = Workloads.ordered(base, order)
          val s = ProtectedHalfSketch(b, seed = seed)
          s.updateAll(data)
          (s, data)
      }
      val actual = s"items=${s.itemsStored} height=${s.height} ranks=${rankDigest(s, data)}"
      assert(golden.get(name).contains(actual), s"\"$name\" -> \"$actual\",")
    }
  }
}
